//! `serve_bench` — load generator for the serving runtime.
//!
//! ```text
//! serve_bench [--domains N] [--secs S] [--clients C] [--shards N]
//!             [--proto jsonl|binary] [--pipeline N] [--batch]
//!             [--connect HOST:PORT] [--shutdown] [--out FILE]
//!             [--min-decisions K] [--zipf S] [--resident-bytes N]
//!             [--retry N] [--metrics-summary]
//! ```
//!
//! Default mode spawns an in-process `tempo-serve` server (sim clock, real
//! TCP loopback sockets) and hammers it; `--connect` points the same load
//! at an externally started daemon instead (the CI smoke test does both
//! halves: `tempo-serve` in the background, `serve_bench --connect` against
//! it). Each client thread owns a slice of the domains and loops
//! ingest-burst → advance until the deadline; the process exits non-zero
//! unless every domain made at least `--min-decisions` decisions and the
//! server drained cleanly.
//!
//! `--proto binary` negotiates the framed binary codec, `--pipeline N`
//! keeps N requests in flight per connection (out-of-order completion over
//! binary, write-ahead over JSONL), and `--batch` folds each ingest+advance
//! round into a single `IngestAdvance` frame.
//!
//! `--zipf S` switches to fleet mode: clients draw target domains from a
//! Zipf(S) distribution over the whole fleet instead of sweeping an owned
//! slice, a `Rebalance` is issued at the halfway mark, and the report adds
//! peak estimated resident bytes plus the per-shard advance-load spread.
//! Combine with `--domains 100000 --resident-bytes N` to exercise
//! cold-domain hibernation at fleet scale: when the in-process server is
//! used, domains are created through the embedded runtime handle (no wire
//! round-trip per create) so hundred-thousand-domain fleets stay feasible.
//! The per-domain decision floor is skipped in zipf mode — a cold Zipf
//! tail is the whole point.
//!
//! `--metrics-summary` prints a one-screen end-of-run digest (request
//! p50/p95/p99 per codec+op, what-if cache hit rate, WAL append p99,
//! ingest shed/delay counts) sourced from the server's `Telemetry`
//! exposition — the numbers a human checks first, pre-extracted.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tempo_serve::demo::{contention_burst, contention_spec, DEMO_WINDOW};
use tempo_serve::proto::{Request, Response};
use tempo_serve::{
    Client, ClientStats, ClockMode, FleetConfig, Proto, RetryPolicy, Server, ServerConfig,
};

fn connect(addr: &str, proto: Proto, retry: Option<RetryPolicy>) -> Client {
    match retry {
        Some(policy) => Client::connect_retry(addr, proto, policy),
        None => Client::connect(addr, proto),
    }
    .expect("connect to tempo-serve")
}

/// Zipf(s) sampler over ranks `0..n`: rank `i` is drawn with probability
/// proportional to `1/(i+1)^s`. Built once and shared read-only by every
/// client thread; sampling is a binary search over the cumulative table.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: u64, s: f64) -> Self {
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

    fn sample(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Cheap deterministic per-thread unit-interval stream (LCG, high 53 bits).
fn next_unit(state: &mut u64) -> f64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    ((*state >> 11) as f64) / ((1u64 << 53) as f64)
}

/// One-screen digest of the server's Prometheus exposition: the handful of
/// numbers a human checks after a load run, pre-extracted.
fn print_metrics_summary(text: &str) {
    let exp = match tempo_obs::Exposition::parse(text) {
        Ok(exp) => exp,
        Err(e) => {
            eprintln!("serve_bench: telemetry parse failed: {e}");
            return;
        }
    };
    let quantile = |name: &str, subset: &[(&str, &str)], q: f64| {
        exp.histogram_quantile(name, subset, q).map_or_else(|| "-".into(), |v| format!("{v:.0}us"))
    };
    println!("serve_bench: telemetry digest —");
    let mut keys: Vec<(String, String)> = exp
        .samples
        .iter()
        .filter(|s| s.name == "tempo_request_duration_micros_count")
        .filter_map(|s| Some((s.label("codec")?.to_string(), s.label("op")?.to_string())))
        .collect();
    keys.sort();
    keys.dedup();
    for (codec, op) in &keys {
        let subset = [("codec", codec.as_str()), ("op", op.as_str())];
        let count = exp.sum("tempo_request_duration_micros_count", &subset);
        println!(
            "  {codec}/{op}: {count:.0} requests, p50 {} / p95 {} / p99 {}",
            quantile("tempo_request_duration_micros", &subset, 0.50),
            quantile("tempo_request_duration_micros", &subset, 0.95),
            quantile("tempo_request_duration_micros", &subset, 0.99),
        );
    }
    let hits = exp.sum("tempo_whatif_cache_hits_total", &[]);
    let lookups = hits + exp.sum("tempo_whatif_cache_misses_total", &[]);
    if lookups > 0.0 {
        println!(
            "  what-if cache: {:.1}% hit rate ({hits:.0} of {lookups:.0} lookups), {:.0} sims",
            100.0 * hits / lookups,
            exp.sum("tempo_whatif_sims_total", &[]),
        );
    }
    let wal_appends = exp.sum("tempo_wal_appends_total", &[]);
    if wal_appends > 0.0 {
        println!(
            "  wal: {wal_appends:.0} appends (p99 {}), {:.0} checkpoints",
            quantile("tempo_wal_append_duration_micros", &[], 0.99),
            exp.sum("tempo_wal_checkpoints_total", &[]),
        );
    }
    println!(
        "  ingest backpressure: {:.0} shed, {:.0} delayed",
        exp.sum("tempo_ingest_shed_total", &[]),
        exp.sum("tempo_ingest_delayed_total", &[]),
    );
}

fn main() {
    // The bench always collects telemetry: the in-process server shares this
    // process, and the digest below reads it back out of the exposition.
    tempo_obs::set_enabled(true);
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag_value =
        |name: &str| args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned();
    let parse = |name: &str, default: u64| {
        flag_value(name).map_or(default, |v| v.parse().unwrap_or_else(|_| panic!("bad {name}")))
    };
    let domains = parse("--domains", 64).max(1);
    let secs = flag_value("--secs").map_or(2.0, |v| v.parse::<f64>().expect("bad --secs"));
    let clients = parse("--clients", domains.min(8)).max(1) as usize;
    let shards = parse("--shards", tempo_serve::server::default_shards() as u64) as usize;
    let min_decisions = parse("--min-decisions", 1);
    let proto = flag_value("--proto")
        .map_or(Proto::Jsonl, |v| Proto::parse(&v).unwrap_or_else(|e| panic!("{e}")));
    let pipeline = parse("--pipeline", 1).max(1) as usize;
    let batch = args.iter().any(|a| a == "--batch");
    let zipf_s = flag_value("--zipf").map(|v| v.parse::<f64>().expect("bad --zipf"));
    let resident_bytes =
        flag_value("--resident-bytes").map(|v| v.parse::<u64>().expect("bad --resident-bytes"));
    let external = flag_value("--connect");
    let shutdown_external = args.iter().any(|a| a == "--shutdown");
    let metrics_summary = args.iter().any(|a| a == "--metrics-summary");
    let out = flag_value("--out");
    // `--retry N` arms the client retry policy (N attempts per call,
    // exponential backoff, transparent reconnect) — the knob the chaos
    // smoke uses to ride out injected connection drops and stalls.
    let retry = flag_value("--retry").map(|v| RetryPolicy {
        max_attempts: v.parse().expect("bad --retry"),
        ..RetryPolicy::default()
    });

    // Spawn an in-process server unless pointed at an external one.
    let spawned = if external.is_none() {
        Some(
            Server::start(ServerConfig {
                addr: "127.0.0.1:0".into(),
                shards,
                clock: ClockMode::Sim,
                fleet: FleetConfig {
                    resident_bytes_watermark: resident_bytes,
                    ..FleetConfig::default()
                },
                ..ServerConfig::default()
            })
            .expect("start in-process tempo-serve"),
        )
    } else {
        None
    };
    let addr = external.unwrap_or_else(|| spawned.as_ref().unwrap().local_addr().to_string());

    let mut control = connect(&addr, proto, retry);
    let sim_clock = match control.call(&Request::Hello).expect("handshake") {
        Response::Hello { clock, .. } => clock == "sim",
        other => panic!("handshake failed: {other:?}"),
    };
    // Ingest accounting below is a delta, and the clock reading seeds the
    // burst time axis: an external daemon may already carry traffic and an
    // advanced sim clock from earlier runs (CI drives one daemon twice).
    let (initial_ingested, initial_clock) =
        match control.call(&Request::Metrics).expect("initial metrics") {
            Response::Metrics { metrics } => (metrics.total_ingested, metrics.clock_now),
            other => panic!("initial metrics failed: {other:?}"),
        };

    // Create the fleet. Against the in-process server the embedded runtime
    // handle skips the per-create wire round-trip — the difference between
    // seconds and minutes at `--domains 100000`.
    let create_started = Instant::now();
    let ids: Vec<u64> = if let Some(server) = &spawned {
        let runtime = server.runtime();
        (0..domains)
            .map(|i| {
                runtime
                    .create_domain(contention_spec(&format!("domain-{i}"), i))
                    .unwrap_or_else(|e| panic!("create domain {i} failed: {e}"))
            })
            .collect()
    } else {
        (0..domains)
            .map(|i| {
                match control
                    .call(&Request::CreateDomain {
                        spec: contention_spec(&format!("domain-{i}"), i),
                    })
                    .expect("create domain")
                {
                    Response::Created { domain } => domain,
                    other => panic!("create domain {i} failed: {other:?}"),
                }
            })
            .collect()
    };
    if domains >= 10_000 {
        println!(
            "serve_bench: created {domains} domains in {:.1}s",
            create_started.elapsed().as_secs_f64()
        );
    }

    // Clients hammer the fleet until the deadline: a round-robin sweep of
    // an owned slice by default, Zipf-sampled draws over every domain in
    // zipf mode.
    let zipf = zipf_s.map(|s| Arc::new(Zipf::new(domains, s)));
    let shared_ids = Arc::new(ids);
    let stop = Arc::new(AtomicBool::new(false));
    // The server's sim-clock reading, refreshed by the ticker thread. Under
    // a sim clock, bursts time themselves off this instead of the
    // per-client round counter: a round-based time axis races ahead of the
    // server clock (fast rounds) or lags hopelessly behind it (an
    // already-ticked daemon), and either way every advance window comes up
    // empty.
    let sim_now = Arc::new(AtomicU64::new(initial_clock));
    let decisions = Arc::new(AtomicU64::new(0));
    let skipped = Arc::new(AtomicU64::new(0));
    let events = Arc::new(AtomicU64::new(0));
    let busy = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let ids = Arc::clone(&shared_ids);
            let my_ids: Vec<u64> = ids.iter().copied().skip(c).step_by(clients).collect();
            let zipf = zipf.clone();
            let addr = addr.clone();
            let stop = Arc::clone(&stop);
            let sim_now = Arc::clone(&sim_now);
            let decisions = Arc::clone(&decisions);
            let skipped = Arc::clone(&skipped);
            let events = Arc::clone(&events);
            let busy = Arc::clone(&busy);
            std::thread::spawn(move || {
                // Per-thread jitter seeds keep retrying clients from
                // thundering back in lockstep after a shared stall.
                let retry = retry.map(|p| RetryPolicy { jitter_seed: c as u64 + 1, ..p });
                let mut client = connect(&addr, proto, retry);
                let mut rng = 0x9E3779B97F4A7C15u64 ^ (c as u64).wrapping_mul(0xD1B54A32D192ED03);
                let mut round = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // Keep the burst base one full window behind the sim
                    // clock: a burst spans ~110s forward from `base`, so
                    // basing it at `now` would land it in the *next* window.
                    // Without a sim clock (wall-clock daemon) fall back to
                    // the round counter as the time axis.
                    let base = if sim_clock {
                        sim_now.load(Ordering::Relaxed).saturating_sub(DEMO_WINDOW)
                    } else {
                        round * (DEMO_WINDOW / 4)
                    };
                    // One round = one pipelined window of either fused
                    // `IngestAdvance` frames or ingest/advance pairs. The
                    // targets are the owned slice (sweep mode) or a fresh
                    // Zipf draw (fleet mode).
                    let targets: Vec<u64> = match &zipf {
                        Some(z) => (0..64.min(my_ids.len()))
                            .map(|_| ids[z.sample(next_unit(&mut rng))])
                            .collect(),
                        None => my_ids.clone(),
                    };
                    let requests: Vec<Request> = targets
                        .iter()
                        .flat_map(|&id| {
                            let jobs = contention_burst(base, 6, id ^ round);
                            if batch {
                                vec![Request::IngestAdvance { domain: id, jobs, steps: 1 }]
                            } else {
                                vec![
                                    Request::Ingest { domain: id, jobs },
                                    Request::Advance { domain: id, steps: 1 },
                                ]
                            }
                        })
                        .collect();
                    let responses = match client.call_pipelined(&requests, pipeline) {
                        Ok(r) => r,
                        // With retry armed the server may genuinely be gone
                        // (chaos kill): exit the loop with the stats we have
                        // instead of panicking the whole bench.
                        Err(e) if retry.is_some() => {
                            eprintln!("serve_bench: client {c} giving up: {e}");
                            break;
                        }
                        Err(e) => panic!("pipelined round: {e}"),
                    };
                    for response in responses {
                        match response {
                            Response::Ingested { accepted, .. } => {
                                events.fetch_add(accepted, Ordering::Relaxed);
                            }
                            Response::Busy { .. } => {
                                busy.fetch_add(1, Ordering::Relaxed);
                            }
                            Response::Advanced { decisions: recs, .. } => {
                                for rec in recs {
                                    if rec.skipped {
                                        skipped.fetch_add(1, Ordering::Relaxed);
                                    } else {
                                        decisions.fetch_add(1, Ordering::Relaxed);
                                    }
                                }
                            }
                            Response::IngestAdvanced {
                                accepted,
                                retry_after_micros,
                                decisions: recs,
                                ..
                            } => {
                                events.fetch_add(accepted, Ordering::Relaxed);
                                if retry_after_micros.is_some() {
                                    busy.fetch_add(1, Ordering::Relaxed);
                                }
                                for rec in recs {
                                    if rec.skipped {
                                        skipped.fetch_add(1, Ordering::Relaxed);
                                    } else {
                                        decisions.fetch_add(1, Ordering::Relaxed);
                                    }
                                }
                            }
                            other => panic!("request failed: {other:?}"),
                        }
                    }
                    round += 1;
                }
                client.stats()
            })
        })
        .collect();

    // Main thread paces the deadline and, under a sim clock, rolls time
    // forward so windows keep moving. In zipf mode a single `Rebalance` is
    // issued at the halfway mark; the advance-load counters reset there, so
    // the final per-shard spread reflects the rebalanced placement.
    let mut rebalance_moves: Option<u64> = None;
    while started.elapsed().as_secs_f64() < secs {
        std::thread::sleep(Duration::from_millis(25));
        if sim_clock {
            match control.call(&Request::Tick { micros: DEMO_WINDOW / 8 }).expect("tick") {
                Response::Ticked { now } => sim_now.store(now, Ordering::Relaxed),
                other => panic!("tick failed: {other:?}"),
            }
        }
        if zipf.is_some()
            && rebalance_moves.is_none()
            && started.elapsed().as_secs_f64() >= secs / 2.0
        {
            rebalance_moves = match control.call(&Request::Rebalance).expect("rebalance") {
                Response::Rebalanced { moves } => Some(moves.len() as u64),
                other => panic!("rebalance failed: {other:?}"),
            };
        }
    }
    stop.store(true, Ordering::SeqCst);
    let mut retry_stats = ClientStats::default();
    for h in handles {
        let s = h.join().expect("client thread");
        retry_stats.attempts += s.attempts;
        retry_stats.retries += s.retries;
        retry_stats.reconnects += s.reconnects;
        retry_stats.busy_retries += s.busy_retries;
        retry_stats.exhausted += s.exhausted;
    }
    let elapsed = started.elapsed().as_secs_f64();
    if retry.is_some() {
        let c = control.stats();
        println!(
            "serve_bench: retry — {} attempts, {} retries, {} reconnects, \
             {} busy retries, {} exhausted",
            retry_stats.attempts + c.attempts,
            retry_stats.retries + c.retries,
            retry_stats.reconnects + c.reconnects,
            retry_stats.busy_retries + c.busy_retries,
            retry_stats.exhausted + c.exhausted
        );
    }

    // Deterministic floor catch-up: on a loaded single-core box a client
    // thread can be starved out of its entire timed budget, which says
    // nothing about the fleet. Before judging the per-domain decision
    // floor, give every under-floor domain direct synchronous rounds with
    // jobs placed squarely in the live window — a genuinely wedged shard
    // fails these too, which is the failure class the floor exists to
    // catch.
    if zipf.is_none() && min_decisions > 0 {
        for _ in 0..3 * min_decisions {
            let m = if let Some(server) = &spawned {
                server.runtime().metrics()
            } else {
                match control.call(&Request::Metrics).expect("catch-up metrics") {
                    Response::Metrics { metrics } => metrics,
                    other => panic!("catch-up metrics failed: {other:?}"),
                }
            };
            let under: Vec<u64> = m
                .per_domain
                .iter()
                .filter(|d| shared_ids.contains(&d.id) && d.decisions < min_decisions)
                .map(|d| d.id)
                .collect();
            if under.is_empty() {
                break;
            }
            for id in under {
                let jobs = contention_burst(m.clock_now.saturating_sub(DEMO_WINDOW), 6, id);
                match control.call(&Request::Ingest { domain: id, jobs }).expect("catch-up ingest")
                {
                    Response::Ingested { accepted, .. } => {
                        events.fetch_add(accepted, Ordering::Relaxed);
                    }
                    Response::Busy { .. } => {
                        busy.fetch_add(1, Ordering::Relaxed);
                    }
                    other => panic!("catch-up ingest failed: {other:?}"),
                }
                match control
                    .call(&Request::Advance { domain: id, steps: 1 })
                    .expect("catch-up advance")
                {
                    Response::Advanced { decisions: recs, .. } => {
                        for rec in recs {
                            if rec.skipped {
                                skipped.fetch_add(1, Ordering::Relaxed);
                            } else {
                                decisions.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    other => panic!("catch-up advance failed: {other:?}"),
                }
            }
        }
    }

    // Final metrics: read through the embedded handle when we own the
    // server (a 100k-domain fleet serializes to tens of MB of JSONL — no
    // reason to push that through the socket), over the wire otherwise.
    let metrics = if let Some(server) = &spawned {
        server.runtime().metrics()
    } else {
        match control.call(&Request::Metrics).expect("metrics") {
            Response::Metrics { metrics } => metrics,
            other => panic!("metrics failed: {other:?}"),
        }
    };
    let total_decisions = decisions.load(Ordering::SeqCst);
    let total_events = events.load(Ordering::SeqCst);
    let dps = total_decisions as f64 / elapsed;
    let eps = total_events as f64 / elapsed;
    let proto_name = proto.name();
    println!(
        "serve_bench: {domains} domains / {clients} clients / {:.1}s \
         [{proto_name}, pipeline {pipeline}{}] — \
         {total_decisions} decisions ({dps:.1}/s), {total_events} ingest events ({eps:.1}/s), \
         {} skipped, {} busy, {} cache entries, {} sims",
        elapsed,
        if batch { ", batched" } else { "" },
        skipped.load(Ordering::SeqCst),
        busy.load(Ordering::SeqCst),
        metrics.total_cache_entries,
        metrics.total_sims
    );

    // Fleet accounting: per-shard advance-load spread (post-rebalance in
    // zipf mode) and the resident-bytes ceiling.
    let shard_total: u64 = metrics.shard_loads.iter().sum();
    let shard_max = metrics.shard_loads.iter().copied().max().unwrap_or(0);
    let shard_mean = shard_total as f64 / metrics.shard_loads.len().max(1) as f64;
    let load_ratio = if shard_total > 0 { shard_max as f64 / shard_mean } else { 1.0 };
    println!(
        "serve_bench: fleet — {} of {} domains resident, {} resident bytes \
         (peak {}), {} hibernations / {} rehydrations / {} migrations, \
         shard loads {:?} (max/mean {:.2}{})",
        metrics.resident_domains,
        metrics.domains,
        metrics.resident_bytes,
        metrics.peak_resident_bytes,
        metrics.total_hibernations,
        metrics.total_rehydrations,
        metrics.total_migrations,
        metrics.shard_loads,
        load_ratio,
        match rebalance_moves {
            Some(n) => format!(", {n} rebalance moves"),
            None => String::new(),
        }
    );
    if let Some(watermark) = resident_bytes {
        // The eviction plan runs inside the dispatch critical section, so
        // the peak can overshoot the watermark by at most the domain being
        // touched, plus in-flight growth noted for ops already dispatched
        // on other shards — "watermark plus one domain", with a little
        // cross-shard slack.
        let max_domain = metrics.per_domain.iter().map(|m| m.estimated_bytes).max().unwrap_or(0);
        let bound = watermark + max_domain + 64 * 1024;
        assert!(
            metrics.peak_resident_bytes <= bound,
            "peak resident bytes {} exceeded watermark {} + one domain ({} + slack = {})",
            metrics.peak_resident_bytes,
            watermark,
            max_domain,
            bound
        );
    }
    if zipf.is_some() && metrics.shard_loads.len() >= 2 && shard_total >= 50 * shards as u64 {
        assert!(
            load_ratio <= 2.0 + 1e-9,
            "shard advance load {shard_max} is more than 2x the mean {shard_mean:.1} \
             after rebalancing: {:?}",
            metrics.shard_loads
        );
    }

    if let Some(path) = out {
        let zipf_field = zipf_s.map_or("null".to_string(), |s| format!("{s}"));
        let json = format!(
            "{{\n  \"domains\": {domains},\n  \"clients\": {clients},\n  \"secs\": {elapsed},\n  \
             \"proto\": \"{proto_name}\",\n  \"pipeline\": {pipeline},\n  \
             \"batch\": {batch},\n  \"zipf\": {zipf_field},\n  \
             \"decisions\": {total_decisions},\n  \"ingest_events\": {total_events},\n  \
             \"decisions_per_sec\": {dps},\n  \"ingest_events_per_sec\": {eps},\n  \
             \"resident_domains\": {},\n  \"peak_resident_bytes\": {},\n  \
             \"hibernations\": {},\n  \"shard_load_ratio\": {load_ratio}\n}}\n",
            metrics.resident_domains, metrics.peak_resident_bytes, metrics.total_hibernations
        );
        std::fs::write(&path, json).expect("write --out report");
        println!("wrote {path}");
    }

    // The digest reads the server's exposition over the wire, so it must
    // run while the control connection is still up.
    if metrics_summary {
        match control.call(&Request::Telemetry).expect("telemetry") {
            Response::Telemetry { text } => print_metrics_summary(&text),
            other => panic!("telemetry failed: {other:?}"),
        }
    }

    // Shut the spawned server down and verify the drain; `--shutdown` asks
    // the same of an external daemon (CI smoke stops the background
    // `tempo-serve` this way).
    if let Some(server) = spawned {
        assert!(matches!(
            control.call(&Request::Shutdown).expect("shutdown"),
            Response::ShuttingDown
        ));
        let runtime = server.join();
        let final_metrics = runtime.metrics();
        assert_eq!(final_metrics.domains, domains, "all domains survived to shutdown");
        println!("serve_bench: server drained cleanly");
    } else if shutdown_external {
        assert!(matches!(
            control.call(&Request::Shutdown).expect("shutdown"),
            Response::ShuttingDown
        ));
        println!("serve_bench: asked external server to shut down");
    }

    // The floor is per-domain: one healthy domain must not mask a wedged
    // fleet (exactly the sharding failure class this smoke exists to
    // catch). Skipped in zipf mode — a cold, rarely drawn tail is expected
    // there, not a wedged shard.
    if zipf.is_none() {
        let starved: Vec<String> = metrics
            .per_domain
            .iter()
            .filter(|m| shared_ids.contains(&m.id) && m.decisions < min_decisions)
            .map(|m| format!("{} ({}/{})", m.name, m.decisions, min_decisions))
            .collect();
        if !starved.is_empty() {
            eprintln!(
                "serve_bench: FAILED — {} of {domains} domains under the \
                 {min_decisions}-decision floor: {}",
                starved.len(),
                starved.join(", ")
            );
            std::process::exit(1);
        }
    }
    if retry_stats.retries == 0 && control.stats().retries == 0 {
        assert_eq!(
            metrics.total_ingested - initial_ingested,
            total_events,
            "server-side ingest accounting matches the client side"
        );
    } else {
        // Retry is at-least-once: a resend after a torn connection may have
        // re-executed an ingest the client never saw acknowledged, so the
        // server can only have counted at least what the clients did.
        assert!(
            metrics.total_ingested - initial_ingested >= total_events,
            "server-side ingest accounting fell below the client side under retry"
        );
    }
}
