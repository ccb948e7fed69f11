//! The traced run: per-layer metrics and the reconciliation ledger.
//!
//! Three parts, all on the same generated inputs as the untraced run:
//!
//! 1. one untraced epoch and one traced epoch (every request's span kept in
//!    memory), giving `obs.traced_over_untraced`; the server's `Telemetry`
//!    exposition is scraped around the traced epoch's phases, and the
//!    `tempo_*` counter deltas give the per-decision counts;
//! 2. a synchronous replay of the first rounds, where each op runs on three
//!    copies of the same state — over the wire to a server configured like
//!    the workload's, on an embedded `ControllerRuntime`, and on a
//!    standalone `Domain` — with each layer's public functions timed around
//!    it;
//! 3. the ledger: each layer's self time per op against the synchronous
//!    round trip.
//!
//! Spans are written to `.bench_run/spans/<workload>-seed<n>.jsonl` when the
//! run ends.

use crate::e2e::{self, Expect};
use crate::reference;
use crate::stats::{mean, median};
use crate::workload::{Class, Inputs, TICK};
use crate::{Metric, Report};
use bytes::BytesMut;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use tempo_core::{WorkerPool, WorkloadSource};
use tempo_obs::Exposition;
use tempo_serve::codec;
use tempo_serve::server::default_shards;
use tempo_serve::{
    Client, ControllerRuntime, Domain, FleetConfig, Journal, JournalOp, JournalRecord, NoFaults,
    Proto, Request, Response, Server, SimClock,
};
use tempo_workload::time::Time;

/// Salt for the standalone What-if evaluation: non-zero, so it computes
/// like a salted probe does instead of filling the memo cache.
const PROBE_SALT: u64 = 0xB0B;

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// One replayed op's measurements, in µs unless named otherwise.
#[derive(Default, Clone)]
struct OpSpan {
    round: usize,
    domain: u64,
    op: &'static str,
    class: Option<Class>,
    encode: f64,
    decode: f64,
    request_bytes: f64,
    response_bytes: f64,
    round_trip: f64,
    runtime: f64,
    domain_ingest: f64,
    domain_advance: f64,
    domain_read: f64,
    /// Non-skipped decisions only.
    decision: Option<DecisionCost>,
    hibernate: Option<f64>,
    rehydrate: Option<f64>,
    snapshot_bytes: Option<f64>,
    wal_append: Option<f64>,
}

impl OpSpan {
    fn domain_total(&self) -> f64 {
        self.domain_ingest + self.domain_advance + self.domain_read
    }
}

fn op_name(request: &Request) -> &'static str {
    match request {
        Request::Ingest { .. } => "ingest",
        Request::Advance { .. } => "advance",
        Request::IngestAdvance { .. } => "ingest_advance",
        Request::Config { .. } => "config",
        _ => "other",
    }
}

/// Times the codec both ways on one message; returns (encode µs, decode µs,
/// bytes on the wire).
fn codec_cost<T>(proto: Proto, msg: &T) -> Result<(f64, f64, f64), String>
where
    T: serde::Serialize + serde::Deserialize + PartialEq,
{
    match proto {
        Proto::Binary => {
            let mut buf = BytesMut::new();
            let t = Instant::now();
            codec::encode_frame(1, msg, &mut buf);
            let encode = us(t);
            let mut pending = buf.to_vec();
            let len = pending.len() as f64;
            let t = Instant::now();
            let (_, body) = codec::take_frame(&mut pending)?.ok_or("short frame")?;
            let back: T = codec::decode_binary(&body)?;
            let decode = us(t);
            if back != *msg {
                return Err("binary codec round trip changed a message".into());
            }
            Ok((encode, decode, len))
        }
        Proto::Jsonl => {
            let mut line = String::new();
            let t = Instant::now();
            tempo_serve::proto::encode_line(msg, &mut line);
            let encode = us(t);
            let t = Instant::now();
            let back: T = tempo_serve::proto::decode(&line)?;
            let decode = us(t);
            if back != *msg {
                return Err("JSONL codec round trip changed a message".into());
            }
            Ok((encode, decode, line.len() as f64))
        }
    }
}

/// Counter deltas between two scrapes of the same process.
fn delta(before: &Exposition, after: &Exposition) -> Exposition {
    let mut out = after.clone();
    for s in &mut out.samples {
        if let Some(b) = before.samples.iter().find(|b| b.name == s.name && b.labels == s.labels) {
            s.value -= b.value;
        }
    }
    out
}

fn scrape(addr: SocketAddr, proto: Proto) -> Result<Exposition, String> {
    match e2e::call(addr, proto, &Request::Telemetry)? {
        Response::Telemetry { text } => Exposition::parse(&text),
        other => Err(format!("telemetry: {other:?}")),
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Everything the synchronous replay measured.
struct Replay {
    spans: Vec<OpSpan>,
    /// Server counter deltas over the replay (its own hibernation, WAL).
    telemetry: Exposition,
    checkpoint_us: f64,
    wal_bytes: f64,
    wal_appends: f64,
}

fn replay(inputs: &Inputs, run_dir: &Path) -> Result<Replay, String> {
    let w = &inputs.workload;
    let dir = run_dir.join("replay");
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::start(e2e::server_config(w, w.journal.then(|| dir.join("server"))))
        .map_err(|e| e.to_string())?;
    let addr = server.local_addr();
    e2e::create_domains(addr, inputs)?;
    let mut client = Client::connect(addr, w.proto).map_err(|e| e.to_string())?;
    let clock = Arc::new(SimClock::new());
    let runtime = ControllerRuntime::with_fleet(
        default_shards(),
        Arc::<SimClock>::clone(&clock),
        FleetConfig::default(),
    );
    for spec in &inputs.specs {
        runtime.create_domain(spec.clone()).map_err(|e| e.to_string())?;
    }
    // Standalone domains share one pool of the runtime's width, so the
    // embedded and standalone calls execute the same way.
    let pool = WorkerPool::with_default_width();
    let mut domains: BTreeMap<u64, Domain> = BTreeMap::new();
    let journal = if w.journal {
        Some(Journal::open(dir.join("wal"), u64::MAX, Arc::new(NoFaults))?.0)
    } else {
        None
    };
    let before = scrape(addr, w.proto)?;
    let mut spans = Vec::new();
    for (r, round) in inputs.rounds.iter().take(w.replay_rounds as usize).enumerate() {
        let now = r as Time * TICK;
        clock.set(now);
        for op in round.iter().flatten() {
            let mut span = OpSpan {
                round: r,
                domain: op.domain,
                op: op_name(&op.request),
                class: Some(op.class),
                ..OpSpan::default()
            };
            let (enc, dec, bytes) = codec_cost(w.proto, &op.request)?;
            span.encode += enc;
            span.decode += dec;
            span.request_bytes = bytes;

            let t = Instant::now();
            let response = client.call(&op.request).map_err(|e| e.to_string())?;
            span.round_trip = us(t);
            let (enc, dec, bytes) = codec_cost(w.proto, &response)?;
            span.encode += enc;
            span.decode += dec;
            span.response_bytes = bytes;

            let request = op.request.clone();
            let t = Instant::now();
            let embedded = runtime
                .on_domain(op.domain, move |d| reference::apply(d, now, &request))
                .map_err(|e| e.to_string())?;
            span.runtime = us(t);

            let d = match domains.entry(op.domain) {
                std::collections::btree_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::btree_map::Entry::Vacant(e) => {
                    let mut d = Domain::new(inputs.specs[op.domain as usize].clone())?;
                    d.install_pool(pool.clone());
                    e.insert(d)
                }
            };
            let mut records = Vec::new();
            match &op.request {
                Request::Ingest { jobs, .. } | Request::IngestAdvance { jobs, .. } => {
                    let jobs = jobs.clone();
                    let t = Instant::now();
                    d.ingest(now, jobs);
                    span.domain_ingest = us(t);
                }
                Request::Config { .. } => {
                    let t = Instant::now();
                    std::hint::black_box(d.current_config());
                    span.domain_read = us(t);
                }
                _ => {}
            }
            if matches!(op.request, Request::Advance { .. } | Request::IngestAdvance { .. }) {
                let t = Instant::now();
                let rec = d.advance(now);
                span.domain_advance = us(t);
                if !rec.skipped {
                    span.decision = Some(decision_costs(d)?);
                }
                records.push(rec);
            }
            if reference::decisions(&response) != records.as_slice()
                || reference::decisions(&embedded) != records.as_slice()
            {
                return Err(format!(
                    "replay of domain {} round {r}: wire, runtime and standalone domain disagree",
                    op.domain
                ));
            }
            if w.watermark.is_some() && op.class == Class::Decision {
                let t = Instant::now();
                let bytes = codec::encode_snapshot(&d.snapshot(op.domain));
                span.hibernate = Some(us(t));
                span.snapshot_bytes = Some(bytes.len() as f64);
                let t = Instant::now();
                let restored = Domain::restore(codec::decode_snapshot(&bytes)?)?;
                span.rehydrate = Some(us(t));
                drop(restored);
            }
            if let Some(journal) = &journal {
                let logged = match op.request.clone() {
                    Request::Ingest { domain, jobs } => Some(JournalOp::Ingest { domain, jobs }),
                    Request::Advance { domain, steps } => {
                        Some(JournalOp::Advance { domain, steps })
                    }
                    Request::IngestAdvance { domain, jobs, steps } => {
                        Some(JournalOp::IngestAdvance { domain, jobs, steps })
                    }
                    _ => None,
                };
                if let Some(op) = logged {
                    let record = JournalRecord { now, op };
                    let t = Instant::now();
                    journal.append(&record)?;
                    span.wal_append = Some(us(t));
                }
            }
            spans.push(span);
        }
        match client.call(&Request::Tick { micros: TICK }).map_err(|e| e.to_string())? {
            Response::Ticked { now } if now == (r as Time + 1) * TICK => {}
            other => return Err(format!("replay tick: {other:?}")),
        }
    }
    let telemetry = delta(&before, &scrape(addr, w.proto)?);
    drop(client);
    let (mut checkpoint_us, mut wal_bytes, mut wal_appends) = (0.0, 0.0, 0.0);
    if let Some(journal) = &journal {
        wal_appends = journal.stats().appends as f64;
        wal_bytes = std::fs::metadata(journal.dir().join("journal.bin"))
            .map_err(|e| e.to_string())?
            .len() as f64;
        let snapshot = runtime.snapshot();
        let t = Instant::now();
        journal.write_checkpoint(&snapshot)?;
        checkpoint_us = us(t);
    }
    e2e::shutdown(server, w.proto)?;
    runtime.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    Ok(Replay { spans, telemetry, checkpoint_us, wal_bytes, wal_appends })
}

/// What-if, simulator and QS costs of one decision, timed on the domain's
/// installed window, in µs.
#[derive(Clone, Copy)]
struct DecisionCost {
    /// One salted What-if evaluation (one simulation plus its QS scan).
    evaluate: f64,
    /// `tempo_sim::predict` on the window trace.
    predict: f64,
    /// `SloSet::evaluate` on the predicted schedule.
    qs: f64,
    /// A probe batch as wide as the decision's (one salted evaluation per
    /// simulation it ran) on the domain's pool: the wall time the decision
    /// spends in What-if, simulator and QS.
    batch: f64,
}

fn decision_costs(d: &Domain) -> Result<DecisionCost, String> {
    let whatif = &d.tempo().whatif;
    let config = d.current_config();
    let sims = d.last_provenance().sims as usize;
    let t = Instant::now();
    std::hint::black_box(whatif.evaluate_salted(&config, PROBE_SALT));
    let evaluate = us(t);
    let batch = vec![config.clone(); sims];
    let t = Instant::now();
    std::hint::black_box(whatif.evaluate_batch_salted(&batch, PROBE_SALT));
    let batch = us(t);
    let WorkloadSource::Replay(trace) = &whatif.source else {
        return Err("serve domains replay their window".into());
    };
    let t = Instant::now();
    let schedule = tempo_sim::predict(trace, &whatif.cluster, &config);
    let predict = us(t);
    let t = Instant::now();
    std::hint::black_box(whatif.slos.evaluate(&schedule, whatif.window.0, whatif.window.1));
    let qs = us(t);
    Ok(DecisionCost { evaluate, predict, qs, batch })
}

/// The traced run: a fixed amount of work, whatever `--seconds` says.
pub fn run(inputs: &Inputs, run_dir: &Path, started: Instant) -> Result<Report, String> {
    let w = &inputs.workload;
    let expect = Expect::new(inputs);
    let untraced = e2e::epoch(inputs, &expect, run_dir, false, &mut |_| {})?;
    let mut scrapes = Vec::new();
    let mut scrape_err = None;
    let traced =
        e2e::epoch(inputs, &expect, run_dir, true, &mut |addr| match scrape(addr, w.proto) {
            Ok(e) => scrapes.push(e),
            Err(e) => scrape_err = Some(e),
        })?;
    if let Some(e) = scrape_err {
        return Err(e);
    }
    let [start, end] = <[Exposition; 2]>::try_from(scrapes).map_err(|_| "expected two scrapes")?;
    let tel = delta(&start, &end);
    let dps = |e: &e2e::Epoch| e.closed_decisions as f64 / e.closed_s;
    let traced_over_untraced = dps(&traced) / dps(&untraced);

    let rep = replay(inputs, run_dir)?;
    let spans = &rep.spans;
    let pick =
        |f: &dyn Fn(&OpSpan) -> Option<f64>| -> Vec<f64> { spans.iter().filter_map(f).collect() };
    let decisions: Vec<&OpSpan> = spans.iter().filter(|s| s.decision.is_some()).collect();
    let dec = |f: &dyn Fn(&OpSpan, DecisionCost) -> f64| -> Vec<f64> {
        decisions.iter().map(|s| f(s, s.decision.expect("decision span"))).collect()
    };
    let med = |v: &[f64]| median(v).unwrap_or(0.0);
    let sum = |name: &str| tel.sum(name, &[]);
    let e2e_decisions = sum("tempo_domain_decisions_total");
    let ops = traced.attempted as f64;
    let batches = sum("tempo_pool_batches_total");

    let encode = pick(&|s| Some(s.encode));
    let decode = pick(&|s| Some(s.decode));
    let overhead = pick(&|s| Some(s.round_trip - s.runtime));
    let runtime_advance = pick(&|s| (s.class == Some(Class::Decision)).then_some(s.runtime));
    let runtime_ingest = pick(&|s| (s.class == Some(Class::Ingest)).then_some(s.runtime));
    let handoff = pick(&|s| Some(s.runtime - s.domain_total()));
    let domain_advance = pick(&|s| (s.class == Some(Class::Decision)).then_some(s.domain_advance));
    let domain_ingest =
        pick(&|s| matches!(s.op, "ingest" | "ingest_advance").then_some(s.domain_ingest));
    let evaluate = dec(&|_, d| d.evaluate);
    let predict = dec(&|_, d| d.predict);
    let qs = dec(&|_, d| d.qs);
    let residual = dec(&|s, d| s.domain_advance - d.batch);
    let hibernate = pick(&|s| s.hibernate);
    let rehydrate = pick(&|s| s.rehydrate);
    let wal_append = pick(&|s| s.wal_append);

    // The ledger: mean self time per replayed op, by layer. Each row is a
    // direct measurement except where noted; whatever the rows leave of
    // the synchronous round trip has no span of its own.
    let n = spans.len().max(1) as f64;
    let per_op = |total: f64| total / n;
    // The probe batch's wall time, split by the single-evaluation shares.
    let batch = per_op(dec(&|_, d| d.batch).iter().sum());
    let (e, p, q) = (mean(&evaluate), mean(&predict), mean(&qs));
    let share = |part: f64| if e > 0.0 { batch * part / e } else { 0.0 };
    let rt = mean(&pick(&|s| Some(s.round_trip)));
    let rep_sum = |name: &str| rep.telemetry.sum(name, &[]);
    let rows: Vec<(&str, &str, f64)> = vec![
        ("serve::codec", "encode + decode, both directions", mean(&encode) + mean(&decode)),
        ("serve::runtime", "shard handoff = runtime call - domain call", mean(&handoff)),
        (
            "serve::domain",
            "ingest + config reads",
            per_op(spans.iter().map(|s| s.domain_ingest + s.domain_read).sum()),
        ),
        ("core::whatif", "probe batch x (evaluate - predict - qs) / evaluate", share(e - p - q)),
        ("sim", "probe batch x predict / evaluate", share(p)),
        ("qs", "probe batch x qs / evaluate", share(q)),
        ("core::control", "advance - probe batch (by difference)", per_op(residual.iter().sum())),
        (
            "serve::fleet",
            "hibernations x hibernate + rehydrations x rehydrate",
            per_op(
                rep_sum("tempo_domain_hibernations_total") * mean(&hibernate)
                    + rep_sum("tempo_domain_rehydrations_total") * mean(&rehydrate),
            ),
        ),
        (
            "serve::wal",
            "appends x append + checkpoints x checkpoint",
            // The counter also saw the replay's own journal's appends.
            per_op(
                (rep_sum("tempo_wal_appends_total") - rep.wal_appends) * mean(&wal_append)
                    + rep_sum("tempo_wal_checkpoints_total") * rep.checkpoint_us,
            ),
        ),
    ];
    let accounted: f64 = rows.iter().map(|r| r.2).sum();
    let unaccounted = 1.0 - accounted / rt;

    let mut lines = vec![format!(
        "workload {}: traced run; replayed {} op(s) ({} decisions) over {} round(s)",
        w.name,
        spans.len(),
        decisions.len(),
        w.replay_rounds
    )];
    lines.push(format!("reconciliation (mean us per op, synchronous round trip {rt:.1} us):"));
    for (layer, how, v) in &rows {
        lines.push(format!("  {layer:<16} {v:>10.1} us {:>6.1}%  {how}", 100.0 * v / rt));
    }
    lines.push(format!(
        "  {:<16} {:>10.1} us {:>6.1}%  socket, server dispatch and anything else without a span",
        "unaccounted",
        rt - accounted,
        100.0 * unaccounted
    ));
    if unaccounted.abs() > 0.10 {
        lines.push(format!(
            "LEDGER: {:.1}% of the round trip is unaccounted (beyond the +-10% target): \
             a layer is missing a span",
            100.0 * unaccounted
        ));
    }
    let hit_ratio =
        ratio(sum("tempo_whatif_cache_hits_total"), sum("tempo_whatif_probe_evals_total"));
    lines.push(format!(
        "what-if memo cache: {} hits in {} probe evaluations",
        sum("tempo_whatif_cache_hits_total"),
        sum("tempo_whatif_probe_evals_total")
    ));

    let m = |name: &'static str, unit: &'static str, value: f64, samples: usize| Metric {
        name,
        unit,
        value,
        samples,
    };
    let d = decisions.len();
    let s = spans.len();
    let metrics = vec![
        m("codec.encode_us", "us", med(&encode), s),
        m("codec.decode_us", "us", med(&decode), s),
        m("codec.request_bytes", "bytes", mean(&pick(&|s| Some(s.request_bytes))), s),
        m("codec.response_bytes", "bytes", mean(&pick(&|s| Some(s.response_bytes))), s),
        m("server.overhead_us", "us", med(&overhead), s),
        m("runtime.advance_us", "us", med(&runtime_advance), runtime_advance.len()),
        m("runtime.ingest_us", "us", med(&runtime_ingest), runtime_ingest.len()),
        m("runtime.handoff_us", "us", med(&handoff), s),
        m("domain.advance_us", "us", med(&domain_advance), domain_advance.len()),
        m("domain.ingest_us", "us", med(&domain_ingest), domain_ingest.len()),
        m("whatif.evaluate_us", "us", med(&evaluate), d),
        m(
            "whatif.sims_per_decision",
            "count",
            ratio(sum("tempo_whatif_sims_total"), e2e_decisions),
            e2e_decisions as usize,
        ),
        m(
            "whatif.cache_hit_ratio",
            "ratio",
            hit_ratio,
            sum("tempo_whatif_probe_evals_total") as usize,
        ),
        m("sim.predict_us", "us", med(&predict), d),
        m(
            "sim.events_per_run",
            "count",
            ratio(sum("tempo_sim_events_total"), sum("tempo_sim_runs_total")),
            sum("tempo_sim_runs_total") as usize,
        ),
        m("qs.evaluate_us", "us", med(&qs), d),
        m(
            "qs.scan_elems_per_decision",
            "count",
            ratio(sum("tempo_qs_scan_elements_total"), e2e_decisions),
            e2e_decisions as usize,
        ),
        m("control.residual_us", "us", med(&residual), d),
        m(
            "pool.batch_p50_us",
            "us",
            tel.histogram_quantile("tempo_pool_batch_duration_micros", &[], 0.5).unwrap_or(0.0),
            batches as usize,
        ),
        m(
            "pool.tasks_per_batch",
            "count",
            ratio(sum("tempo_pool_tasks_total"), batches),
            batches as usize,
        ),
        m(
            "pool.steals_per_batch",
            "count",
            ratio(sum("tempo_pool_steals_total"), batches),
            batches as usize,
        ),
        m(
            "fleet.hibernations_per_1k_ops",
            "per_1k_ops",
            1e3 * ratio(sum("tempo_domain_hibernations_total"), ops),
            ops as usize,
        ),
        m(
            "fleet.rehydrations_per_1k_ops",
            "per_1k_ops",
            1e3 * ratio(sum("tempo_domain_rehydrations_total"), ops),
            ops as usize,
        ),
        m("fleet.snapshot_bytes", "bytes", mean(&pick(&|s| s.snapshot_bytes)), hibernate.len()),
        m("fleet.hibernate_us", "us", med(&hibernate), hibernate.len()),
        m("fleet.rehydrate_us", "us", med(&rehydrate), rehydrate.len()),
        m("wal.append_us", "us", med(&wal_append), wal_append.len()),
        m(
            "wal.bytes_per_op",
            "bytes",
            ratio(rep.wal_bytes, rep.wal_appends),
            rep.wal_appends as usize,
        ),
        m("wal.checkpoint_us", "us", rep.checkpoint_us, usize::from(rep.checkpoint_us > 0.0)),
        m("wal.checkpoints", "count", sum("tempo_wal_checkpoints_total"), 1),
        m("ledger.unaccounted_ratio", "ratio", unaccounted, s),
        m("obs.traced_over_untraced", "ratio", traced_over_untraced, 2),
    ];
    write_spans(inputs, &traced, spans)?;
    lines.push(format!("run took {:.1}s", started.elapsed().as_secs_f64()));
    let mut errors = untraced.errors;
    errors.extend(traced.errors);
    Ok(Report {
        lines,
        metrics,
        reported: Vec::new(),
        attempted: untraced.attempted + traced.attempted,
        failed: untraced.failed + traced.failed,
        errors,
    })
}

/// Writes the traced epoch's request spans and the replay's layer spans as
/// JSON lines: `{"trace", "span", "parent", "us"}`.
fn write_spans(inputs: &Inputs, traced: &e2e::Epoch, spans: &[OpSpan]) -> Result<(), String> {
    let dir = Path::new(".bench_run").join("spans");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("{}-seed{}.jsonl", inputs.workload.name, inputs.seed));
    let mut out = String::new();
    let origin = traced.sent.iter().map(|s| s.sent).min();
    for (i, s) in traced.sent.iter().enumerate() {
        let at = |t: Instant| origin.map_or(0.0, |o| t.duration_since(o).as_secs_f64() * 1e6);
        let _ = writeln!(
            out,
            "{{\"trace\": \"epoch/{i}\", \"span\": \"wire.{:?}\", \"parent\": \"round/{}\", \
             \"domain\": {}, \"start_us\": {:.1}, \"us\": {:.1}}}",
            s.class,
            s.round,
            s.domain,
            at(s.sent),
            s.recv.duration_since(s.sent).as_secs_f64() * 1e6
        );
    }
    for (i, s) in spans.iter().enumerate() {
        let mut emit = |span: &str, parent: &str, v: f64| {
            let _ = writeln!(
                out,
                "{{\"trace\": \"replay/{i}\", \"span\": \"{span}\", \"parent\": \"{parent}\", \
                 \"domain\": {}, \"round\": {}, \"op\": \"{}\", \"us\": {v:.2}}}",
                s.domain, s.round, s.op
            );
        };
        emit("server.round_trip", "", s.round_trip);
        emit("codec", "server.round_trip", s.encode + s.decode);
        emit("runtime.call", "server.round_trip", s.runtime);
        emit("domain.call", "runtime.call", s.domain_total());
        if let Some(d) = s.decision {
            emit("whatif.probe_batch", "domain.call", d.batch);
            emit("whatif.evaluate", "", d.evaluate);
            emit("sim.predict", "whatif.evaluate", d.predict);
            emit("qs.evaluate", "whatif.evaluate", d.qs);
        }
        for (name, v) in [
            ("fleet.hibernate", s.hibernate),
            ("fleet.rehydrate", s.rehydrate),
            ("wal.append", s.wal_append),
        ] {
            if let Some(v) = v {
                emit(name, "", v);
            }
        }
    }
    std::fs::write(&path, out).map_err(|e| format!("write {}: {e}", path.display()))
}
