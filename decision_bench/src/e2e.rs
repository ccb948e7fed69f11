//! The untraced end-to-end run: an in-process `tempo-serve` on loopback,
//! driven from outside over its wire protocol.
//!
//! One epoch = set-up (server start + domain creation), the closed-loop
//! phase, the open-loop phase, and for journaled workloads a graceful
//! shutdown plus a restart on the same journal. Every epoch replays the
//! same generated inputs on a fresh server, so every epoch makes the same
//! decisions; a run repeats epochs until its time is used and reports
//! medians over epochs.

use crate::calib;
use crate::reference::{self, Digest};
use crate::workload::{Class, Inputs, Workload, TICK};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use tempo_serve::codec::{self, BINARY_PREFIX, BINARY_VERSION, JSONL_PREFIX};
use tempo_serve::server::default_shards;
use tempo_serve::{Client, ClockMode, FleetConfig, Proto, Request, Response, Server, ServerConfig};

/// A request that hangs this long fails the run instead of stalling it.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cumulative `(steal, total)` CPU ticks of the machine, from `/proc/stat`.
pub fn cpu_ticks() -> (u64, u64) {
    let line = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = line
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().take(8).sum())
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux's clock ids for the calling process's and thread's CPU time.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_s(clock_id: i32) -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` for the whole call,
    // and `clock_gettime` writes only through that pointer.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    if rc != 0 {
        return f64::NAN;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU time this process has used, every thread and user plus system, in
/// seconds with nanosecond resolution (`/proc/self/stat` counts in 10 ms
/// ticks). Time the hypervisor stole is not charged to it.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time the calling thread has used, in seconds.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// The server settings a workload runs under.
pub fn server_config(w: &Workload, journal_dir: Option<PathBuf>) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        shards: default_shards(),
        clock: ClockMode::Sim,
        fleet: FleetConfig { resident_bytes_watermark: w.watermark, ..FleetConfig::default() },
        journal_dir,
        ..ServerConfig::default()
    }
}

/// Creates every domain over the wire; ids must come back as `0..n`.
pub fn create_domains(addr: SocketAddr, inputs: &Inputs) -> Result<(), String> {
    let mut client = Client::connect(addr, inputs.workload.proto).map_err(|e| e.to_string())?;
    let requests: Vec<Request> =
        inputs.specs.iter().map(|spec| Request::CreateDomain { spec: spec.clone() }).collect();
    let responses = client.call_pipelined(&requests, 64).map_err(|e| e.to_string())?;
    for (i, response) in responses.iter().enumerate() {
        match response {
            Response::Created { domain } if *domain == i as u64 => {}
            other => return Err(format!("create domain {i}: {other:?}")),
        }
    }
    Ok(())
}

/// One synchronous control request.
pub fn call(addr: SocketAddr, proto: Proto, request: &Request) -> Result<Response, String> {
    let mut client = Client::connect(addr, proto).map_err(|e| e.to_string())?;
    client.call(request).map_err(|e| e.to_string())
}

/// Sends `Shutdown` and waits for the server to drain; with a journal,
/// cuts the final checkpoint the daemon writes on a graceful exit. Returns
/// once every shard worker has been joined.
pub fn shutdown(server: Server, proto: Proto) -> Result<(), String> {
    let addr = server.local_addr();
    let journal = server.journal().cloned();
    match call(addr, proto, &Request::Shutdown)? {
        Response::ShuttingDown => {}
        other => return Err(format!("shutdown: {other:?}")),
    }
    let runtime = server.join();
    if let Some(journal) = journal {
        let (_, result) = runtime.quiesced_snapshot(|snapshot| {
            journal.write_checkpoint_with(snapshot, || runtime.clock().now())
        });
        result.map_err(|e| format!("final checkpoint: {e}"))?;
    }
    match Arc::try_unwrap(runtime) {
        Ok(runtime) => runtime.shutdown(),
        Err(_) => return Err("runtime still referenced after the server drained".into()),
    }
    Ok(())
}

/// Timings and response of one request.
pub struct Sent {
    pub round: usize,
    pub class: Class,
    pub domain: u64,
    /// When an open-loop request was due; `None` in the closed loop.
    pub due: Option<Instant>,
    pub sent: Instant,
    pub recv: Instant,
    pub response: Response,
}

/// One entry of a connection's pre-encoded send script.
struct Entry {
    bytes: Vec<u8>,
    /// `None` for the `Tick` that closes each round.
    op: Option<(usize, Class, u64)>,
    /// Open-loop due time as an offset from the open phase's start.
    due: Option<Duration>,
}

/// The pre-encoded stream of one connection over both phases.
fn script(inputs: &Inputs, conn: usize) -> Vec<Entry> {
    let w = &inputs.workload;
    let period = Duration::from_secs_f64(1.0 / w.open_rate);
    let mut entries = Vec::new();
    let encode = |corr: u64, request: &Request| match w.proto {
        Proto::Binary => {
            let mut buf = bytes::BytesMut::new();
            codec::encode_frame(corr, request, &mut buf);
            buf.to_vec()
        }
        Proto::Jsonl => {
            let mut line = String::new();
            tempo_serve::proto::encode_line(request, &mut line);
            line.into_bytes()
        }
    };
    for (r, round) in inputs.rounds.iter().enumerate() {
        let open = r as u64 >= w.closed_rounds;
        let k = r as u64 - if open { w.closed_rounds } else { 0 };
        let ops = &round[conn];
        for (j, op) in ops.iter().enumerate() {
            let due = open.then(|| period * k as u32 + period.mul_f64(j as f64 / ops.len() as f64));
            let bytes = encode(entries.len() as u64, &op.request);
            entries.push(Entry { bytes, op: Some((r, op.class, op.domain)), due });
        }
        let bytes = encode(entries.len() as u64, &Request::Tick { micros: TICK });
        entries.push(Entry { bytes, op: None, due: None });
    }
    entries
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// One answered request of a script.
struct Reply {
    sent: Instant,
    recv: Instant,
    bytes: Vec<u8>,
    /// When an open-loop request was due.
    due: Option<Instant>,
}

#[derive(Default)]
struct Inbox {
    frames: Vec<(u64, Instant, Vec<u8>)>,
    closed: Option<String>,
}

/// Drives one binary connection through its script with up to `window`
/// requests in flight: this thread sends, a second thread receives. The
/// open phase starts at entry `open_from`, when the closed phase's last
/// `Tick` returns; its due times count from then. Each round's closing
/// `Tick` is followed by a calibration sample, pushed onto `calib`.
fn drive_binary(
    addr: SocketAddr,
    entries: &[Entry],
    window: usize,
    open_from: usize,
    calib: &mut Vec<calib::Sample>,
) -> Result<Vec<Option<Reply>>, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream.set_read_timeout(Some(READ_TIMEOUT)).map_err(|e| e.to_string())?;
    stream.write_all(&[BINARY_PREFIX, BINARY_VERSION]).map_err(|e| e.to_string())?;
    let inbox = Arc::new((Mutex::new(Inbox::default()), Condvar::new()));
    let reader = {
        let inbox = Arc::clone(&inbox);
        let mut stream = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        std::thread::spawn(move || {
            let (lock, cv) = &*inbox;
            let mut header = [0u8; 12];
            loop {
                let outcome = stream.read_exact(&mut header).and_then(|()| {
                    let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes"));
                    let corr = u64::from_le_bytes(header[4..].try_into().expect("8 bytes"));
                    let mut body = vec![0u8; (len as usize).saturating_sub(8)];
                    stream.read_exact(&mut body).map(|()| (corr, body))
                });
                let mut inbox = lock.lock().expect("inbox lock");
                match outcome {
                    Ok((corr, body)) => inbox.frames.push((corr, Instant::now(), body)),
                    Err(e) => {
                        inbox.closed = Some(e.to_string());
                        cv.notify_all();
                        return;
                    }
                }
                cv.notify_all();
            }
        })
    };
    let (lock, cv) = &*inbox;
    let wait_for = |count: usize| -> Result<(), String> {
        let mut inbox = lock.lock().expect("inbox lock");
        while inbox.frames.len() < count {
            if let Some(e) = &inbox.closed {
                return Err(format!("connection closed: {e}"));
            }
            inbox = cv.wait(inbox).expect("inbox lock");
        }
        Ok(())
    };
    let received = || lock.lock().expect("inbox lock").frames.len();

    let mut sent_at = vec![None; entries.len()];
    let mut due_at = vec![None; entries.len()];
    let mut open_start = None;
    let mut buf = Vec::new();
    let mut i = 0;
    let result = (|| {
        while i < entries.len() {
            if entries[i].op.is_none() {
                wait_for(i)?;
                sent_at[i] = Some(Instant::now());
                stream.write_all(&entries[i].bytes).map_err(|e| e.to_string())?;
                wait_for(i + 1)?;
                calib.push(calib::run());
                i += 1;
                if i == open_from {
                    open_start = Some(Instant::now());
                }
                continue;
            }
            if let (Some(off), Some(start)) = (entries[i].due, open_start) {
                due_at[i] = Some(start + off);
                sleep_until(start + off);
            }
            wait_for((i + 1).saturating_sub(window))?;
            let done = received();
            let now = Instant::now();
            buf.clear();
            while i < entries.len() && entries[i].op.is_some() && i - done < window {
                if let (Some(off), Some(start)) = (entries[i].due, open_start) {
                    if start + off > now {
                        break;
                    }
                    due_at[i] = Some(start + off);
                }
                buf.extend_from_slice(&entries[i].bytes);
                sent_at[i] = Some(now);
                i += 1;
            }
            stream.write_all(&buf).map_err(|e| e.to_string())?;
        }
        Ok::<(), String>(())
    })();
    let _ = stream.shutdown(std::net::Shutdown::Both);
    let _ = reader.join();
    result?;
    let mut inbox = lock.lock().expect("inbox lock");
    let mut out: Vec<Option<Reply>> = (0..entries.len()).map(|_| None).collect();
    for (corr, recv, bytes) in inbox.frames.drain(..) {
        let slot = out.get_mut(corr as usize).ok_or(format!("unknown correlation id {corr}"))?;
        let sent = sent_at[corr as usize].ok_or("response before send")?;
        let due = due_at[corr as usize];
        if slot.replace(Reply { sent, recv, bytes, due }).is_some() {
            return Err(format!("duplicate response {corr}"));
        }
    }
    Ok(out)
}

/// A round barrier that a failing connection can break, so its peers
/// return an error instead of waiting forever.
#[derive(Default)]
struct RoundBarrier {
    /// (arrived, generation, broken)
    state: Mutex<(usize, u64, bool)>,
    cv: Condvar,
}

impl RoundBarrier {
    fn wait(&self, parties: usize) -> Result<(), String> {
        let mut st = self.state.lock().expect("barrier lock");
        let generation = st.1;
        st.0 += 1;
        if st.0 == parties {
            *st = (0, generation + 1, st.2);
            self.cv.notify_all();
        }
        while st.1 == generation && !st.2 {
            st = self.cv.wait(st).expect("barrier lock");
        }
        if st.2 {
            return Err("a peer connection failed".into());
        }
        Ok(())
    }

    fn break_it(&self) {
        self.state.lock().expect("barrier lock").2 = true;
        self.cv.notify_all();
    }
}

/// Drives one synchronous JSONL connection. Connections meet at a barrier
/// after every round; connection 0 then sends the `Tick` and, when it
/// returns, takes a calibration sample onto `calib`.
#[allow(clippy::too_many_arguments)]
fn drive_jsonl(
    addr: SocketAddr,
    entries: &[Entry],
    conn: usize,
    parties: usize,
    barrier: &RoundBarrier,
    open_start: &Mutex<Option<Instant>>,
    open_from_round: usize,
    calib: &mut Vec<calib::Sample>,
) -> Result<Vec<Option<Reply>>, String> {
    let result =
        jsonl_script(addr, entries, conn, parties, barrier, open_start, open_from_round, calib);
    if result.is_err() {
        barrier.break_it();
    }
    result
}

#[allow(clippy::too_many_arguments)]
fn jsonl_script(
    addr: SocketAddr,
    entries: &[Entry],
    conn: usize,
    parties: usize,
    barrier: &RoundBarrier,
    open_start: &Mutex<Option<Instant>>,
    open_from_round: usize,
    calib: &mut Vec<calib::Sample>,
) -> Result<Vec<Option<Reply>>, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream.set_read_timeout(Some(READ_TIMEOUT)).map_err(|e| e.to_string())?;
    stream.write_all(&[JSONL_PREFIX]).map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut out = Vec::with_capacity(entries.len());
    let mut line = Vec::new();
    let mut round = 0;
    let mut start = None;
    for entry in entries {
        let Some(_) = entry.op else {
            barrier.wait(parties)?;
            let mut ticked = None;
            if conn == 0 {
                let sent = Instant::now();
                stream.write_all(&entry.bytes).map_err(|e| e.to_string())?;
                line.clear();
                reader.read_until(b'\n', &mut line).map_err(|e| e.to_string())?;
                ticked = Some(Reply { sent, recv: Instant::now(), bytes: line.clone(), due: None });
                calib.push(calib::run());
                round += 1;
                if round == open_from_round {
                    *open_start.lock().expect("open start") = Some(Instant::now());
                }
            } else {
                round += 1;
            }
            barrier.wait(parties)?;
            if round == open_from_round {
                start = *open_start.lock().expect("open start");
            }
            out.push(ticked);
            continue;
        };
        let due = entry.due.zip(start).map(|(off, s)| s + off);
        if let Some(due) = due {
            sleep_until(due);
        }
        let sent = Instant::now();
        stream.write_all(&entry.bytes).map_err(|e| e.to_string())?;
        line.clear();
        if reader.read_until(b'\n', &mut line).map_err(|e| e.to_string())? == 0 {
            return Err("connection closed".into());
        }
        out.push(Some(Reply { sent, recv: Instant::now(), bytes: line.clone(), due }));
    }
    Ok(out)
}

/// Everything one epoch measured and checked.
#[derive(Default)]
pub struct Epoch {
    pub setup_s: f64,
    pub closed_s: f64,
    pub closed_decisions: u64,
    pub closed_jobs: u64,
    pub decision_ms: Vec<f64>,
    pub ingest_ms: Vec<f64>,
    pub late_ms: Vec<f64>,
    /// Lateness of the first request of each open round, in order.
    pub round_late_ms: Vec<f64>,
    pub restart_s: Option<f64>,
    /// Process peak RSS (`VmHWM`) when the open phase ended, before the
    /// shutdown, restart and state checks.
    pub peak_rss_mb: f64,
    /// CPU time the process spent over both phases, calibration excluded.
    pub phases_cpu_s: f64,
    /// The calibration samples taken after every round.
    pub calib: Vec<calib::Sample>,
    /// Share of the machine's CPU time the hypervisor stole from set-up to
    /// the end of the open phase.
    pub steal: f64,
    pub attempted: u64,
    pub failed: u64,
    pub decisions: u64,
    pub deadline_miss_sum: f64,
    pub avg_response_sum: f64,
    /// Correctness violations; any entry fails the run.
    pub errors: Vec<String>,
    /// Every request's timings, kept for the traced run's span file.
    pub sent: Vec<Sent>,
}

/// What an epoch checks its outputs against.
pub struct Expect {
    pub digests: BTreeMap<u64, (Digest, u64)>,
}

impl Expect {
    pub fn new(inputs: &Inputs) -> Expect {
        Expect { digests: reference::replay(inputs, &reference::sample(inputs)) }
    }
}

/// Called with the server's address right after set-up and right after the
/// open phase; the traced run scrapes telemetry there.
pub type PhaseHook<'a> = &'a mut dyn FnMut(SocketAddr);

/// Runs one epoch on a fresh server.
pub fn epoch(
    inputs: &Inputs,
    expect: &Expect,
    run_dir: &Path,
    keep_sent: bool,
    hook: PhaseHook<'_>,
) -> Result<Epoch, String> {
    let w = &inputs.workload;
    let journal_dir = w.journal.then(|| run_dir.join("journal"));
    if let Some(dir) = &journal_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    let ticks = cpu_ticks();
    let started = Instant::now();
    let server = Server::start(server_config(w, journal_dir.clone())).map_err(|e| e.to_string())?;
    let addr = server.local_addr();
    create_domains(addr, inputs)?;
    let mut ep = Epoch { setup_s: started.elapsed().as_secs_f64(), ..Epoch::default() };
    hook(addr);

    let scripts: Vec<Vec<Entry>> = (0..w.connections).map(|c| script(inputs, c)).collect();
    let cpu_before = process_cpu_s();
    let mut calib = Vec::new();
    let results: Vec<Vec<Option<Reply>>> = match w.proto {
        Proto::Binary => {
            let open_from =
                scripts[0].iter().position(|e| e.due.is_some()).unwrap_or(scripts[0].len());
            vec![drive_binary(addr, &scripts[0], w.pipeline, open_from, &mut calib)?]
        }
        Proto::Jsonl => {
            let barrier = RoundBarrier::default();
            let open_start = Mutex::new(None);
            let mut samples: Vec<Vec<calib::Sample>> = vec![Vec::new(); scripts.len()];
            let results = std::thread::scope(|s| {
                let handles: Vec<_> = scripts
                    .iter()
                    .zip(&mut samples)
                    .enumerate()
                    .map(|(c, (entries, samples))| {
                        let (barrier, open_start) = (&barrier, &open_start);
                        s.spawn(move || {
                            drive_jsonl(
                                addr,
                                entries,
                                c,
                                w.connections,
                                barrier,
                                open_start,
                                w.closed_rounds as usize,
                                samples,
                            )
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().map_err(|_| "client thread panicked".to_string())?)
                    .collect::<Result<Vec<_>, String>>()
            })?;
            calib.append(&mut samples[0]);
            results
        }
    };
    let phases_cpu_s = process_cpu_s() - cpu_before;

    // Decode and check every response, outside the timed phases.
    let mut observed: BTreeMap<u64, (Digest, u64)> = BTreeMap::new();
    let mut accepted_total = 0u64;
    let mut closed_end: Option<Instant> = None;
    let mut closed_begin: Option<Instant> = None;
    for (c, (entries, got)) in scripts.iter().zip(&results).enumerate() {
        let mut ticks = 0u64;
        for (entry, got) in entries.iter().zip(got) {
            let Some(Reply { sent, recv, bytes, due }) = got else {
                if entry.op.is_some() || c == 0 {
                    ep.errors.push("a request got no response".into());
                }
                continue;
            };
            let response: Response = match w.proto {
                Proto::Binary => codec::decode_binary(bytes),
                Proto::Jsonl => {
                    tempo_serve::proto::decode(std::str::from_utf8(bytes).unwrap_or(""))
                }
            }
            .map_err(|e| format!("undecodable response: {e}"))?;
            let Some((round, class, domain)) = entry.op else {
                if !matches!(response, Response::Ticked { .. }) {
                    ep.errors.push(format!("tick answered {response:?}"));
                }
                if ticks < w.closed_rounds {
                    closed_end = Some(closed_end.map_or(*recv, |e: Instant| e.max(*recv)));
                }
                ticks += 1;
                continue;
            };
            ep.attempted += 1;
            closed_begin = Some(closed_begin.map_or(*sent, |b: Instant| b.min(*sent)));
            let closed = (round as u64) < w.closed_rounds;
            let ok = matches!(
                (&response, class),
                (Response::IngestAdvanced { retry_after_micros: None, .. }, Class::Decision)
                    | (Response::Advanced { .. }, Class::Decision)
                    | (Response::Ingested { .. }, Class::Ingest)
                    | (Response::Config { .. }, Class::Read)
            );
            if !ok {
                ep.failed += 1;
                continue;
            }
            let accepted = match &response {
                Response::IngestAdvanced { accepted, .. } | Response::Ingested { accepted, .. } => {
                    *accepted
                }
                _ => 0,
            };
            accepted_total += accepted;
            for rec in reference::decisions(&response) {
                if !rec.skipped {
                    ep.decisions += 1;
                    ep.deadline_miss_sum += rec.observed_qs[0];
                    ep.avg_response_sum += rec.observed_qs[1];
                    if closed {
                        ep.closed_decisions += 1;
                    }
                }
                if expect.digests.contains_key(&domain) {
                    let entry = observed.entry(domain).or_default();
                    entry.0.push(rec);
                    entry.1 += 1;
                }
            }
            if closed {
                ep.closed_jobs += accepted;
            } else if let Some(due) = due {
                let ms =
                    |a: Instant, b: Instant| a.saturating_duration_since(b).as_secs_f64() * 1e3;
                match class {
                    Class::Decision => ep.decision_ms.push(ms(*recv, *due)),
                    Class::Ingest => ep.ingest_ms.push(ms(*recv, *due)),
                    Class::Read => {}
                }
                ep.late_ms.push(ms(*sent, *due));
            }
            if keep_sent {
                ep.sent.push(Sent {
                    round,
                    class,
                    domain,
                    due: *due,
                    sent: *sent,
                    recv: *recv,
                    response,
                });
            }
        }
        // Backlog check: lateness of each open round's first request.
        let mut last_round = None;
        for (entry, got) in entries.iter().zip(got) {
            if let (Some((round, ..)), Some(Reply { sent, due: Some(due), .. })) = (entry.op, got) {
                if last_round != Some(round) && c == 0 {
                    ep.round_late_ms.push(sent.saturating_duration_since(*due).as_secs_f64() * 1e3);
                    last_round = Some(round);
                }
            }
        }
    }
    ep.closed_s = match (closed_begin, closed_end) {
        (Some(b), Some(e)) => e.duration_since(b).as_secs_f64(),
        _ => return Err("closed phase recorded no timings".into()),
    };
    for (id, want) in &expect.digests {
        let got = observed.get(id).copied().unwrap_or_default();
        if got != *want {
            ep.errors.push(format!(
                "domain {id}: decision stream digest {:#x} ({} records) != reference {:#x} ({} records)",
                got.0 .0, got.1, want.0 .0, want.1
            ));
        }
    }
    let metrics = server.runtime().metrics();
    if metrics.total_ingested != accepted_total {
        ep.errors.push(format!(
            "server ingested {} jobs, clients saw {accepted_total} accepted",
            metrics.total_ingested
        ));
    }
    ep.phases_cpu_s = phases_cpu_s - calib.iter().map(|c| c.process_s).sum::<f64>();
    ep.calib = calib;
    ep.peak_rss_mb = peak_rss_mb();
    let (steal, total) = cpu_ticks();
    ep.steal = (steal - ticks.0) as f64 / (total - ticks.1).max(1) as f64;
    hook(addr);

    if w.journal {
        let before = fleet_state(&server, inputs)?;
        let t = Instant::now();
        shutdown(server, w.proto)?;
        let server =
            Server::start(server_config(w, journal_dir.clone())).map_err(|e| e.to_string())?;
        ep.restart_s = Some(t.elapsed().as_secs_f64());
        let after = fleet_state(&server, inputs)?;
        if before != after {
            let bad = before.iter().zip(&after).filter(|(a, b)| a != b).count();
            ep.errors
                .push(format!("{bad} domain(s) changed config or decision count over restart"));
        }
        shutdown(server, w.proto)?;
    } else {
        shutdown(server, w.proto)?;
    }
    if let Some(dir) = &journal_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(ep)
}

/// Every domain's `(config, decisions)`, read over the wire and from the
/// runtime's metrics.
fn fleet_state(server: &Server, inputs: &Inputs) -> Result<Vec<(String, u64)>, String> {
    let mut client =
        Client::connect(server.local_addr(), inputs.workload.proto).map_err(|e| e.to_string())?;
    let requests: Vec<Request> =
        (0..inputs.specs.len() as u64).map(|domain| Request::Config { domain }).collect();
    let responses = client.call_pipelined(&requests, 64).map_err(|e| e.to_string())?;
    drop(client);
    let decisions: BTreeMap<u64, u64> =
        server.runtime().metrics().per_domain.iter().map(|d| (d.id, d.decisions)).collect();
    responses
        .into_iter()
        .enumerate()
        .map(|(i, r)| match r {
            Response::Config { config, .. } => Ok((
                tempo_serve::proto::encode(&config),
                decisions.get(&(i as u64)).copied().unwrap_or(u64::MAX),
            )),
            other => Err(format!("config read of domain {i}: {other:?}")),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{all, find, Workload};

    fn small(mut w: Workload) -> Workload {
        w.domains = w.domains.min(64);
        w.closed_rounds = 2;
        w.open_rounds = 2;
        w
    }

    /// Every byte the server would receive: the domain creations, then each
    /// connection's script.
    fn wire_bytes(w: &Workload, seed: u64) -> Vec<u8> {
        let inputs = Inputs::generate(w, seed);
        let mut buf = bytes::BytesMut::new();
        for spec in &inputs.specs {
            codec::encode_frame(0, &Request::CreateDomain { spec: spec.clone() }, &mut buf);
        }
        let mut out = buf.to_vec();
        for c in 0..w.connections {
            out.extend(script(&inputs, c).into_iter().flat_map(|e| e.bytes));
        }
        out
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for w in all().into_iter().map(small) {
            let a = wire_bytes(&w, 7);
            assert_eq!(a, wire_bytes(&w, 7), "{}: seed 7 twice", w.name);
            assert_ne!(a, wire_bytes(&w, 8), "{}: seeds 7 and 8", w.name);
        }
    }

    #[test]
    fn every_round_ends_with_a_tick_and_only_the_open_phase_is_scheduled() {
        let w = small(find("fleet_journal").expect("workload"));
        let inputs = Inputs::generate(&w, 3);
        for c in 0..w.connections {
            let entries = script(&inputs, c);
            let ticks: Vec<usize> = entries
                .iter()
                .enumerate()
                .filter(|(_, e)| e.op.is_none())
                .map(|(i, _)| i)
                .collect();
            assert_eq!(ticks.len() as u64, w.closed_rounds + w.open_rounds);
            assert_eq!(ticks.last(), Some(&(entries.len() - 1)));
            for e in &entries {
                if let Some((round, ..)) = e.op {
                    assert_eq!(e.due.is_some(), round as u64 >= w.closed_rounds);
                }
            }
        }
    }
}
