//! The `tempo-serve` TCP server: negotiated JSONL or binary framing over
//! `std::net`.
//!
//! One accept thread, one session per connection, all thin clients of the
//! shared [`ControllerRuntime`]. The first byte of a connection picks the
//! codec ([`codec::BINARY_PREFIX`] + version for binary frames, anything
//! else for legacy JSONL — raw `nc` sessions keep working).
//!
//! Both codecs run the same session; the codec is only its framing
//! (`codec::Inbound` and `Proto::encode`). The connection thread splits
//! requests off the socket and fires domain-targeted operations at the
//! owning shards without waiting ([`ControllerRuntime::on_domain_async`]),
//! while global operations run inline. A per-connection writer thread
//! streams completions back under the request's correlation id: binary
//! responses go out as they complete, so they may legally arrive out of
//! order while per-domain order is preserved; JSONL requests are numbered
//! by their place in line, and their responses go out in that order.
//!
//! Graceful shutdown is cooperative: a `Shutdown` request (or
//! [`Server::request_shutdown`]) raises a flag, session reads poll it via
//! short socket timeouts, and the accept loop is unblocked by a loopback
//! poke — every thread drains and joins before [`Server::join`] returns.

use crate::clock::{Clock, SimClock, WallClock};
use crate::codec::{self, Inbound, Proto, BINARY_PREFIX, BINARY_VERSION};
use crate::domain::{Domain, IngestOutcome};
use crate::fault::{no_faults, FaultInjector};
use crate::fleet::FleetConfig;
use crate::proto::{Request, Response, PROTO_VERSION};
use crate::runtime::{push_trace, ControllerRuntime, DecisionTrace, RuntimeError};
use crate::wal::{self, Journal, JournalOp, JournalRecord};
use bytes::BytesMut;
use crossbeam::channel::{self, Receiver, Sender};
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;
use tempo_obs::{Stopwatch, TraceRing};
use tempo_workload::time::Time;
use tempo_workload::JobSpec;

/// Step-count clamp for `Advance`/`IngestAdvance` requests.
const MAX_STEPS: u64 = 10_000;

mod obs {
    /// Wire latency histogram for one `(codec, op)` pair — dynamic labels,
    /// so this goes through the registry rather than the call-site-cached
    /// macro.
    pub(super) fn request_micros(codec: &'static str, op: &str) -> &'static tempo_obs::Histogram {
        tempo_obs::histogram(
            "tempo_request_duration_micros",
            "Wire request service time by codec and op",
            &[("codec", codec), ("op", op)],
        )
    }

    pub(super) fn conn_faults(kind: &'static str) -> &'static tempo_obs::Counter {
        tempo_obs::counter(
            "tempo_fault_injections_total",
            "Deterministic fault-injector firings by kind",
            &[("kind", kind)],
        )
    }
}

/// Stable label value for the request-latency histogram.
fn request_op_name(request: &Request) -> &'static str {
    match request {
        Request::Hello => "hello",
        Request::CreateDomain { .. } => "create_domain",
        Request::Ingest { .. } => "ingest",
        Request::Advance { .. } => "advance",
        Request::IngestAdvance { .. } => "ingest_advance",
        Request::AdvanceAll => "advance_all",
        Request::Config { .. } => "config",
        Request::Metrics => "metrics",
        Request::Snapshot => "snapshot",
        Request::Restore { .. } => "restore",
        Request::Tick { .. } => "tick",
        Request::Hibernate { .. } => "hibernate",
        Request::Migrate { .. } => "migrate",
        Request::Rebalance => "rebalance",
        Request::Telemetry => "telemetry",
        Request::TraceQuery { .. } => "trace_query",
        Request::Shutdown => "shutdown",
    }
}

/// How the server's runtime reads time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockMode {
    /// Real time ([`WallClock`]).
    Wall,
    /// Simulated time, driven by `Tick` requests ([`SimClock`]) —
    /// deterministic replay mode.
    Sim,
}

/// Server settings.
#[derive(Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (read it back from
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Shard worker threads.
    pub shards: usize,
    pub clock: ClockMode,
    /// Fleet-management policy (hibernation watermark, idle ticks,
    /// rebalance factor).
    pub fleet: FleetConfig,
    /// Directory for the durable operations journal. `None` = the
    /// pre-crash-only behavior: nothing survives a kill.
    pub journal_dir: Option<PathBuf>,
    /// Checkpoint (and truncate the journal) every this many journaled ops.
    pub checkpoint_every: u64,
    /// Fault injector threaded through the runtime's shard workers, the
    /// journal's appends, and the accept loop's connections.
    pub faults: Arc<dyn FaultInjector>,
    /// Bind address for the Prometheus exposition HTTP endpoint
    /// (`--metrics-port`); `None` disables it. Port 0 picks an ephemeral
    /// port (read it back from [`Server::metrics_addr`]).
    pub metrics_addr: Option<String>,
}

impl std::fmt::Debug for ServerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerConfig")
            .field("addr", &self.addr)
            .field("shards", &self.shards)
            .field("clock", &self.clock)
            .field("fleet", &self.fleet)
            .field("journal_dir", &self.journal_dir)
            .field("checkpoint_every", &self.checkpoint_every)
            .field("metrics_addr", &self.metrics_addr)
            .finish_non_exhaustive()
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7077".into(),
            shards: default_shards(),
            clock: ClockMode::Wall,
            fleet: FleetConfig::default(),
            journal_dir: None,
            checkpoint_every: 1024,
            faults: no_faults(),
            metrics_addr: None,
        }
    }
}

/// Default shard count: the machine's parallelism.
pub fn default_shards() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What every connection session shares.
#[derive(Clone)]
struct Shared {
    runtime: Arc<ControllerRuntime>,
    sim: Option<Arc<SimClock>>,
    journal: Option<Arc<Journal>>,
    shutdown: Arc<AtomicBool>,
}

/// A running server. Dropping it without [`Server::join`] aborts less
/// gracefully (threads are detached); prefer `join`.
pub struct Server {
    shared: Shared,
    local_addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    metrics: Option<tempo_obs::MetricsServer>,
}

impl Server {
    /// Binds and starts serving in background threads.
    ///
    /// With a journal directory configured, recovery runs here — before the
    /// accept thread exists, so no request can observe a half-recovered
    /// runtime: the latest checkpoint is restored, a torn journal tail is
    /// truncated, and the surviving records replay at their recorded clock
    /// readings. Unrecoverable journal state (corrupt checkpoint, future
    /// format version) fails the start rather than serving wrong state.
    pub fn start(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let metrics = match &config.metrics_addr {
            Some(addr) => {
                let addr: SocketAddr = addr.parse().map_err(|e| {
                    std::io::Error::new(
                        ErrorKind::InvalidInput,
                        format!("bad metrics address {addr}: {e}"),
                    )
                })?;
                Some(tempo_obs::MetricsServer::start(addr)?)
            }
            None => None,
        };
        let fleet = config.fleet;
        let faults = Arc::clone(&config.faults);
        let (runtime, sim) = match config.clock {
            ClockMode::Wall => {
                let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
                (
                    ControllerRuntime::with_fleet_faults(
                        config.shards,
                        clock,
                        fleet,
                        Arc::clone(&faults),
                    ),
                    None,
                )
            }
            ClockMode::Sim => {
                let sim = Arc::new(SimClock::new());
                let clock: Arc<dyn Clock> = Arc::<SimClock>::clone(&sim);
                (
                    ControllerRuntime::with_fleet_faults(
                        config.shards,
                        clock,
                        fleet,
                        Arc::clone(&faults),
                    ),
                    Some(sim),
                )
            }
        };
        let runtime = Arc::new(runtime);
        let shutdown = Arc::new(AtomicBool::new(false));

        let corrupt = |e: String| std::io::Error::new(ErrorKind::InvalidData, e);
        let journal = match &config.journal_dir {
            Some(dir) => {
                let (journal, recovered) =
                    Journal::open(dir, config.checkpoint_every, Arc::clone(&faults))
                        .map_err(corrupt)?;
                let report = wal::replay(&runtime, sim.as_deref(), recovered).map_err(corrupt)?;
                if report.checkpoint_domains > 0
                    || report.replayed > 0
                    || report.truncated_bytes > 0
                {
                    eprintln!(
                        "tempo-serve: recovered {} checkpoint domain(s) + {} journal record(s) \
                         ({} torn byte(s) truncated{})",
                        report.checkpoint_domains,
                        report.replayed,
                        report.truncated_bytes,
                        if report.discarded_stale_journal {
                            ", stale journal discarded"
                        } else {
                            ""
                        }
                    );
                }
                Some(Arc::new(journal))
            }
            None => None,
        };

        let shared = Shared { runtime, sim, journal, shutdown };
        let accept_shared = shared.clone();
        let accept_thread = std::thread::Builder::new()
            .name("tempo-serve-accept".into())
            .spawn(move || accept_loop(listener, accept_shared, faults))
            .expect("spawn accept thread");

        Ok(Server { shared, local_addr, accept_thread: Some(accept_thread), metrics })
    }

    /// The operations journal, when one is configured. The daemon uses this
    /// to write a final checkpoint on graceful exit.
    pub fn journal(&self) -> Option<&Arc<Journal>> {
        self.shared.journal.as_ref()
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The bound address of the Prometheus exposition endpoint, when one is
    /// configured (resolves ephemeral ports).
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics.as_ref().map(|m| m.addr())
    }

    /// The hosted runtime (embedded callers can bypass the socket).
    pub fn runtime(&self) -> &Arc<ControllerRuntime> {
        &self.shared.runtime
    }

    /// The simulated clock, in [`ClockMode::Sim`].
    pub fn sim_clock(&self) -> Option<&Arc<SimClock>> {
        self.shared.sim.as_ref()
    }

    /// Raises the shutdown flag and unblocks the accept loop. Returns
    /// immediately; use [`Server::join`] to wait for drain.
    pub fn request_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Poke the blocking accept() so it observes the flag.
        let _ = TcpStream::connect(self.local_addr);
    }

    /// Whether a shutdown has been requested (by a client or locally).
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Blocks until the server has fully drained (accept loop exited, every
    /// connection handler joined), then returns the runtime so the caller
    /// can snapshot it before dropping (which joins the shard workers).
    pub fn join(mut self) -> Arc<ControllerRuntime> {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        Arc::clone(&self.shared.runtime)
    }
}

fn accept_loop(listener: TcpListener, shared: Shared, faults: Arc<dyn FaultInjector>) {
    let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let mut conn_index = 0u64;
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        conn_index += 1;
        let index = conn_index;
        let shared = shared.clone();
        let faults = Arc::clone(&faults);
        let handle = std::thread::Builder::new()
            .name("tempo-serve-conn".into())
            .spawn(move || {
                // Connection faults fire before the handshake, so a dropped
                // connection never half-executed anything: a retrying client
                // reconnects and resends without double-execution.
                if faults.drop_connection(index) {
                    obs::conn_faults("conn_drop").inc();
                    drop(stream);
                    return;
                }
                if let Some(stall) = faults.stall_connection(index) {
                    obs::conn_faults("conn_stall").inc();
                    std::thread::sleep(stall);
                }
                handle_connection(stream, &shared)
            })
            .expect("spawn connection handler");
        let mut list = handlers.lock().expect("handler list");
        // Reap finished handlers so a long-lived daemon serving many
        // short-lived connections doesn't accumulate join state forever.
        list.retain(|h| !h.is_finished());
        list.push(handle);
    }
    for handle in handlers.lock().expect("handler list").drain(..) {
        let _ = handle.join();
    }
}

/// Reads one byte, riding out the shutdown-poll timeouts. `None` means the
/// connection closed, errored, or the server is shutting down.
fn read_negotiation_byte(mut stream: &TcpStream, shutdown: &AtomicBool) -> Option<u8> {
    let mut byte = [0u8; 1];
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return None;
        }
        match stream.read(&mut byte) {
            Ok(0) => return None,
            Ok(_) => return Some(byte[0]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(_) => return None,
        }
    }
}

fn handle_connection(stream: TcpStream, shared: &Shared) {
    // Short read timeouts keep sessions responsive to the shutdown flag
    // without busy-waiting.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let _ = stream.set_nodelay(true);
    // The first byte negotiates the codec.
    let Some(first) = read_negotiation_byte(&stream, &shared.shutdown) else { return };
    let (proto, buffered) = match first {
        BINARY_PREFIX => {
            let Some(version) = read_negotiation_byte(&stream, &shared.shutdown) else { return };
            if version != BINARY_VERSION {
                let mut buf = BytesMut::new();
                let resp = Response::Error {
                    message: format!(
                        "unsupported binary version {version} (server speaks {BINARY_VERSION})"
                    ),
                };
                codec::encode_frame(0, &resp, &mut buf);
                let mut writer = &stream;
                let _ = writer.write_all(&buf);
                return;
            }
            (Proto::Binary, Vec::new())
        }
        codec::JSONL_PREFIX => (Proto::Jsonl, Vec::new()),
        // Anything else is the first byte of a bare JSONL session (`nc`
        // with no explicit prefix): keep it as part of the stream.
        other => (Proto::Jsonl, vec![other]),
    };
    serve_session(stream, proto, Inbound::new(proto, buffered), shared);
}

/// Pokes the server's own accept loop so it observes the shutdown flag; the
/// connection's local address *is* the server's bound address.
fn poke_accept_loop(stream: &TcpStream) {
    if let Ok(addr) = stream.local_addr() {
        let _ = TcpStream::connect(addr);
    }
}

/// Serves one negotiated connection: this thread splits requests off the
/// socket and dispatches them, a writer thread sends the responses.
fn serve_session(stream: TcpStream, proto: Proto, mut inbound: Inbound, shared: &Shared) {
    let Ok(writer) = stream.try_clone() else { return };
    // Completions flow to a dedicated writer thread, which is what lets the
    // reader keep dispatching while earlier requests are still running.
    let (resp_tx, resp_rx) = channel::unbounded::<(u64, Response)>();
    let writer_thread = std::thread::Builder::new()
        .name("tempo-serve-conn-writer".into())
        .spawn(move || writer_loop(writer, proto, resp_rx))
        .expect("spawn connection writer");

    'conn: loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        // Journal upkeep runs on this connection thread, never a shard
        // worker (a checkpoint sweeps every shard and would self-deadlock
        // from one). It runs after a read and before the requests it
        // brought are dispatched: a client that waits for each response
        // gets its checkpoints cut at the same points on every run. With no
        // journal, degraded domains respawn fresh from their retained specs
        // instead.
        if let Some(journal) = &shared.journal {
            wal::run_maintenance(journal, &shared.runtime);
        } else {
            shared.runtime.respawn_degraded();
        }
        // Dispatch every complete request already buffered before reading
        // more.
        loop {
            match inbound.take() {
                Ok(None) => break,
                Ok(Some((corr, body))) => {
                    if !dispatch_frame(shared, proto, corr, body, &resp_tx) {
                        poke_accept_loop(&stream);
                        break 'conn;
                    }
                }
                Err(message) => {
                    // Framing is unrecoverable: report and drop the
                    // connection (there is no resync point in the stream).
                    // A JSONL response takes the next place in line.
                    let corr = if proto == Proto::Jsonl { inbound.lines() } else { 0 };
                    let _ = resp_tx.send((corr, Response::Error { message }));
                    break 'conn;
                }
            }
        }
        match inbound.fill(&stream) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(_) => break,
        }
    }
    // Shard-queued completions still hold sender clones; the writer drains
    // them all and exits once the last one is gone.
    drop(resp_tx);
    let _ = writer_thread.join();
}

/// Decodes one request body; the error is the message the client sees.
fn decode_request(proto: Proto, body: &[u8]) -> Result<Request, String> {
    if proto == Proto::Jsonl && std::str::from_utf8(body).is_err() {
        return Err("request is not valid UTF-8".into());
    }
    proto.decode(body).map_err(|e| format!("bad request: {e}"))
}

/// Where one request's response goes: the connection's writer, under the
/// request's correlation id.
struct Reply {
    corr: u64,
    tx: Option<Sender<(u64, Response)>>,
    watch: Stopwatch,
    /// `(codec, op)` labels of the request-latency histogram.
    labels: (&'static str, &'static str),
}

impl Reply {
    fn send(&mut self, response: Response) {
        if let Some(tx) = self.tx.take() {
            // Completion-time reading: the histogram sees the full
            // pipelined latency (queue wait included), not just decode.
            let (codec, op) = self.labels;
            self.watch.observe_into(|| obs::request_micros(codec, op));
            let _ = tx.send((self.corr, response));
        }
    }
}

impl Drop for Reply {
    /// A shard worker that panics mid-op unwinds through the job and drops
    /// its reply unsent. Answer with the shard fault instead, so no place
    /// in a JSONL session's line of responses stays empty.
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.send(Response::Error { message: RuntimeError::ShardDown.to_string() });
        }
    }
}

/// Decodes and routes one request. Returns `false` when the connection
/// should stop (shutdown requested).
fn dispatch_frame(
    shared: &Shared,
    proto: Proto,
    corr: u64,
    body: &[u8],
    resp_tx: &Sender<(u64, Response)>,
) -> bool {
    let request = match decode_request(proto, body) {
        Ok(r) => r,
        Err(message) => {
            let _ = resp_tx.send((corr, Response::Error { message }));
            return true;
        }
    };
    let mut reply = Reply {
        corr,
        tx: Some(resp_tx.clone()),
        watch: Stopwatch::start(),
        labels: (proto.name(), request_op_name(&request)),
    };
    let runtime = &shared.runtime;
    match split_domain_op(request) {
        Ok((domain, op)) => {
            // Clock is read at dispatch, not execution: a pipelined window
            // of operations shares the submission-time view of now.
            let now = runtime.clock().now();
            // Journaled from the shard callback, right after execution —
            // per-domain journal order therefore equals execution order,
            // which is what replay reproduces. An op that never executes
            // (shard panic, unknown domain) is never journaled.
            let logged = shared.journal.as_ref().and_then(|_| journal_op(domain, &op));
            let journal = shared.journal.clone();
            let traces = Arc::clone(runtime.traces());
            let dispatched = runtime.on_domain_async(domain, move |d| {
                reply.send(match d {
                    Ok(d) => {
                        let response = run_domain_op(domain, d, now, op, &traces);
                        if let (Some(journal), Some(op)) = (journal, logged) {
                            journal.append_logged(&JournalRecord { now, op });
                        }
                        response
                    }
                    Err(e) => Response::Error { message: e.to_string() },
                });
            });
            if let Err(e) = dispatched {
                let _ = resp_tx.send((corr, Response::Error { message: e.to_string() }));
            }
            true
        }
        Err(request) => {
            // Global requests run inline; their shard-fanning operations
            // queue behind already-dispatched domain ops, so a pipelined
            // `Metrics` still observes every earlier completion.
            let (response, stop) = dispatch(shared, request);
            reply.send(response);
            !stop
        }
    }
}

/// Executes one global request inline; the bool asks the connection to
/// stop.
///
/// Journaling is write-behind: every state-mutating operation is appended
/// to the journal *after* it executed (and only when it executed — errors
/// and read-only requests are never logged). The crash-only contract: an op
/// whose response never reached the client may or may not survive a crash;
/// an op journaled before the crash always replays.
fn dispatch(shared: &Shared, request: Request) -> (Response, bool) {
    let Shared { runtime, sim, journal, shutdown } = shared;
    let (sim, journal) = (sim.as_deref(), journal.as_ref());
    let fail = |e: RuntimeError| Response::Error { message: e.to_string() };
    let response = match request {
        Request::Hello => {
            let m = runtime.metrics();
            Response::Hello {
                proto: PROTO_VERSION,
                shards: m.shards,
                domains: m.domains,
                clock: if sim.is_some() { "sim".into() } else { "wall".into() },
            }
        }
        Request::CreateDomain { spec } => {
            let logged = journal.map(|_| spec.clone());
            match runtime.create_domain(spec) {
                Ok(domain) => {
                    if let (Some(journal), Some(spec)) = (journal, logged) {
                        journal.append_logged(&JournalRecord {
                            now: runtime.clock().now(),
                            op: JournalOp::CreateDomain { id: domain, spec },
                        });
                    }
                    Response::Created { domain }
                }
                Err(e) => fail(e),
            }
        }
        Request::AdvanceAll => {
            let now = runtime.clock().now();
            // Journaled per-shard, from each shard's own worker right after
            // its domains advanced: the sweep's records interleave with
            // concurrent per-domain ops in true execution order, which a
            // single post-hoc record from this thread could not guarantee.
            let decisions = match journal {
                Some(journal) => {
                    let journal = Arc::clone(journal);
                    runtime.advance_all_at_with(now, move |ids| {
                        if ids.is_empty() {
                            return;
                        }
                        journal.append_logged(&JournalRecord {
                            now,
                            op: JournalOp::AdvanceAll { domains: ids.to_vec() },
                        });
                    })
                }
                None => runtime.advance_all_at(now),
            };
            Response::AdvancedAll { decisions }
        }
        Request::Metrics => Response::Metrics { metrics: runtime.metrics() },
        Request::Snapshot => Response::Snapshot { snapshot: runtime.snapshot() },
        Request::Restore { snapshot } => {
            let logged = journal.map(|_| snapshot.clone());
            match runtime.restore(snapshot) {
                Ok(domains) => {
                    if let (Some(journal), Some(snapshot)) = (journal, logged) {
                        journal.append_logged(&JournalRecord {
                            now: runtime.clock().now(),
                            op: JournalOp::Restore { snapshot },
                        });
                    }
                    Response::Restored { domains }
                }
                Err(e) => fail(e),
            }
        }
        Request::Tick { micros } => match sim {
            Some(clock) => {
                let now = clock.advance(micros);
                // Ticks double as the fleet's maintenance heartbeat:
                // watermark enforcement and idle-tick hibernation run here.
                runtime.maintain();
                if let Some(journal) = journal {
                    // The record carries the post-advance reading; replay
                    // restores it with an idempotent monotonic set, never by
                    // re-advancing (a record that straddles a checkpoint cut
                    // must not apply the delta twice).
                    journal.append_logged(&JournalRecord { now, op: JournalOp::Tick { micros } });
                }
                Response::Ticked { now }
            }
            None => Response::Error { message: "Tick requires --sim-clock".into() },
        },
        Request::Hibernate { domain } => match runtime.hibernate(domain) {
            Ok(was_resident) => {
                // Only a hibernation that did something is journaled
                // (replay tolerates it no-oping anyway).
                if was_resident {
                    if let Some(journal) = journal {
                        journal.append_logged(&JournalRecord {
                            now: runtime.clock().now(),
                            op: JournalOp::Hibernate { domain },
                        });
                    }
                }
                Response::Hibernated { domain, was_resident }
            }
            Err(e) => fail(e),
        },
        Request::Migrate { domain, shard } => match runtime.migrate(domain, shard as usize) {
            Ok(moved) => {
                if moved {
                    if let Some(journal) = journal {
                        journal.append_logged(&JournalRecord {
                            now: runtime.clock().now(),
                            op: JournalOp::Migrate { domain, shard },
                        });
                    }
                }
                Response::Migrated { domain, shard, moved }
            }
            Err(e) => fail(e),
        },
        Request::Rebalance => {
            let moves = runtime.rebalance();
            // Journaled even when no move happened: rebalance resets the
            // per-shard load window, which shapes later rebalances.
            if let Some(journal) = journal {
                journal.append_logged(&JournalRecord {
                    now: runtime.clock().now(),
                    op: JournalOp::Rebalance,
                });
            }
            Response::Rebalanced { moves }
        }
        Request::Telemetry => Response::Telemetry { text: tempo_obs::render() },
        Request::TraceQuery { limit, domain } => {
            Response::Traces { traces: runtime.recent_traces(limit, domain) }
        }
        Request::Shutdown => {
            shutdown.store(true, Ordering::SeqCst);
            return (Response::ShuttingDown, true);
        }
        // Split off by dispatch_frame and run on the owning shard.
        Request::Ingest { .. }
        | Request::Advance { .. }
        | Request::IngestAdvance { .. }
        | Request::Config { .. } => unreachable!("domain ops never reach dispatch"),
    };
    (response, false)
}

/// The domain-targeted subset of [`Request`], runnable on the owning shard
/// without blocking the connection's reader.
enum DomainOp {
    Ingest { jobs: Vec<JobSpec> },
    Advance { steps: u64 },
    IngestAdvance { jobs: Vec<JobSpec>, steps: u64 },
    Config,
}

/// Splits a request into its async-dispatchable form, with `steps` clamped
/// to `1..=MAX_STEPS`, or hands it back for synchronous (global) execution.
#[allow(clippy::result_large_err)] // Err is the ownership hand-back, not an error path
fn split_domain_op(request: Request) -> Result<(u64, DomainOp), Request> {
    let clamp = |steps: u64| steps.clamp(1, MAX_STEPS);
    match request {
        Request::Ingest { domain, jobs } => Ok((domain, DomainOp::Ingest { jobs })),
        Request::Advance { domain, steps } => {
            Ok((domain, DomainOp::Advance { steps: clamp(steps) }))
        }
        Request::IngestAdvance { domain, jobs, steps } => {
            Ok((domain, DomainOp::IngestAdvance { jobs, steps: clamp(steps) }))
        }
        Request::Config { domain } => Ok((domain, DomainOp::Config)),
        other => Err(other),
    }
}

fn ingest_response(domain: u64, outcome: IngestOutcome) -> Response {
    match outcome {
        IngestOutcome::Accepted { accepted } => Response::Ingested { domain, accepted },
        IngestOutcome::Busy { retry_after_micros } => Response::Busy { domain, retry_after_micros },
    }
}

/// The journal image of a domain op, `None` for read-only ops. `Busy`
/// outcomes are journaled too: refilling the ingest budget's token bucket
/// mutated domain state, and replaying the op reproduces it exactly.
fn journal_op(domain: u64, op: &DomainOp) -> Option<JournalOp> {
    match op {
        DomainOp::Ingest { jobs } => Some(JournalOp::Ingest { domain, jobs: jobs.clone() }),
        DomainOp::Advance { steps } => Some(JournalOp::Advance { domain, steps: *steps }),
        DomainOp::IngestAdvance { jobs, steps } => {
            Some(JournalOp::IngestAdvance { domain, jobs: jobs.clone(), steps: *steps })
        }
        DomainOp::Config => None,
    }
}

/// Executes one domain-targeted operation directly against the domain, on
/// its owning shard, against the clock reading taken at dispatch. Control
/// decisions land in the runtime's trace ring (same path as embedded
/// advances).
fn run_domain_op(
    domain: u64,
    d: &mut Domain,
    now: Time,
    op: DomainOp,
    traces: &TraceRing<DecisionTrace>,
) -> Response {
    let advance = |d: &mut Domain| {
        let rec = d.advance(now);
        push_trace(traces, domain, &rec, d.last_provenance());
        rec
    };
    match op {
        DomainOp::Ingest { jobs } => ingest_response(domain, d.ingest(now, jobs)),
        DomainOp::Advance { steps } => {
            let decisions = (0..steps).map(|_| advance(d)).collect();
            Response::Advanced { domain, decisions }
        }
        DomainOp::IngestAdvance { jobs, steps } => {
            let (accepted, retry_after_micros) = match d.ingest(now, jobs) {
                IngestOutcome::Accepted { accepted } => (accepted, None),
                IngestOutcome::Busy { retry_after_micros } => (0, Some(retry_after_micros)),
            };
            let decisions = (0..steps).map(|_| advance(d)).collect();
            Response::IngestAdvanced { domain, accepted, retry_after_micros, decisions }
        }
        DomainOp::Config => Response::Config { domain, config: d.current_config() },
    }
}

/// Sends responses back, coalescing everything already queued into one
/// write. Binary responses go out in completion order, each echoing its
/// request's id. JSONL responses go out in request order: one that
/// overtook an earlier request waits in `held` until the gap closes.
fn writer_loop(mut writer: TcpStream, proto: Proto, resp_rx: Receiver<(u64, Response)>) {
    let mut buf = BytesMut::with_capacity(64 * 1024);
    let mut held = BTreeMap::new();
    let mut next = 0u64;
    while let Ok(first) = resp_rx.recv() {
        buf.clear();
        for (corr, response) in std::iter::once(first).chain(resp_rx.try_iter()) {
            if proto == Proto::Binary {
                proto.encode(corr, &response, &mut buf);
                continue;
            }
            held.insert(corr, response);
            while let Some(response) = held.remove(&next) {
                proto.encode(next, &response, &mut buf);
                next += 1;
            }
        }
        if writer.write_all(&buf).is_err() {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, RetryPolicy};
    use crate::domain::{DomainSpec, IngestBudget};
    use crate::proto::decode;
    use std::io::{BufRead, BufReader};
    use tempo_qs::{QsKind, SloSet, SloSpec};
    use tempo_sim::{ClusterSpec, RmConfig, TenantConfig};
    use tempo_workload::time::{MIN, SEC};
    use tempo_workload::trace::{JobSpec, TaskSpec};

    fn spec(name: &str) -> DomainSpec {
        let slos = SloSet::new(vec![
            SloSpec::new(Some(0), QsKind::DeadlineMiss { gamma: 0.25 }).with_threshold(0.0),
            SloSpec::new(Some(1), QsKind::AvgResponseTime),
        ]);
        let initial = RmConfig::new(vec![
            TenantConfig::fair_default().with_weight(2.0),
            TenantConfig::fair_default(),
        ]);
        DomainSpec::new(name, ClusterSpec::new(8, 4), slos, initial, 4 * MIN).with_probes(3)
    }

    fn start_sim_server(shards: usize) -> Server {
        Server::start(ServerConfig {
            addr: "127.0.0.1:0".into(),
            shards,
            clock: ClockMode::Sim,
            ..ServerConfig::default()
        })
        .expect("start server")
    }

    fn wire_jobs(count: u64) -> Vec<JobSpec> {
        (0..count)
            .map(|i| {
                JobSpec::new(
                    0,
                    (i % 2) as u16,
                    i * 30 * SEC,
                    vec![TaskSpec::map(20 * SEC), TaskSpec::reduce(30 * SEC)],
                )
            })
            .collect()
    }

    fn end_to_end(proto: Proto) {
        let server = start_sim_server(2);
        let mut client = Client::connect(server.local_addr(), proto).expect("connect");

        match client.call(&Request::Hello).unwrap() {
            Response::Hello { proto, clock, .. } => {
                assert_eq!(proto, PROTO_VERSION);
                assert_eq!(clock, "sim");
            }
            other => panic!("unexpected {other:?}"),
        }

        let domain = match client.call(&Request::CreateDomain { spec: spec("wire") }).unwrap() {
            Response::Created { domain } => domain,
            other => panic!("unexpected {other:?}"),
        };

        match client.call(&Request::Ingest { domain, jobs: wire_jobs(4) }).unwrap() {
            Response::Ingested { accepted, .. } => assert_eq!(accepted, 4),
            other => panic!("unexpected {other:?}"),
        }

        match client.call(&Request::Tick { micros: 2 * MIN }).unwrap() {
            Response::Ticked { now } => assert_eq!(now, 2 * MIN),
            other => panic!("unexpected {other:?}"),
        }

        match client.call(&Request::Advance { domain, steps: 2 }).unwrap() {
            Response::Advanced { decisions, .. } => {
                assert_eq!(decisions.len(), 2);
                assert!(decisions.iter().all(|d| !d.skipped));
            }
            other => panic!("unexpected {other:?}"),
        }

        match client.call(&Request::Metrics).unwrap() {
            Response::Metrics { metrics } => {
                assert_eq!(metrics.domains, 1);
                assert_eq!(metrics.total_decisions, 2);
                assert_eq!(metrics.total_ingested, 4);
            }
            other => panic!("unexpected {other:?}"),
        }

        // Bad input degrades to an error response, not a dropped connection.
        match client.call(&Request::Advance { domain: 999, steps: 1 }).unwrap() {
            Response::Error { message } => assert!(message.contains("unknown domain")),
            other => panic!("unexpected {other:?}"),
        }

        assert_eq!(client.call(&Request::Shutdown).unwrap(), Response::ShuttingDown);
        let runtime = server.join();
        assert_eq!(runtime.metrics().total_decisions, 2);
    }

    #[test]
    fn end_to_end_over_tcp_jsonl() {
        end_to_end(Proto::Jsonl);
    }

    #[test]
    fn end_to_end_over_tcp_binary() {
        end_to_end(Proto::Binary);
    }

    #[test]
    fn binary_pipelining_matches_request_order_across_domains() {
        // JSONL write-ahead runs the same session: its replies to requests
        // completing out of order across shards come back in request order.
        for proto in [Proto::Binary, Proto::Jsonl] {
            pipelining_matches_request_order_across_domains(proto);
        }
    }

    fn pipelining_matches_request_order_across_domains(proto: Proto) {
        let server = start_sim_server(2);
        let mut client = Client::connect(server.local_addr(), proto).expect("connect");
        let mut domains = Vec::new();
        for i in 0..4 {
            match client.call(&Request::CreateDomain { spec: spec(&format!("d{i}")) }).unwrap() {
                Response::Created { domain } => domains.push(domain),
                other => panic!("unexpected {other:?}"),
            }
        }
        // A whole window of batched ingest+advance rounds in flight at once,
        // interleaved across domains that live on different shards.
        let requests: Vec<Request> = (0..16)
            .map(|i| Request::IngestAdvance {
                domain: domains[i % domains.len()],
                jobs: wire_jobs(2),
                steps: 1,
            })
            .collect();
        let responses = client.call_pipelined(&requests, 8).unwrap();
        assert_eq!(responses.len(), 16);
        for (req, resp) in requests.iter().zip(&responses) {
            let Request::IngestAdvance { domain, .. } = req else { unreachable!() };
            match resp {
                Response::IngestAdvanced { domain: d, accepted, decisions, .. } => {
                    assert_eq!(d, domain, "responses matched to their requests");
                    assert_eq!(*accepted, 2);
                    assert_eq!(decisions.len(), 1);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        // A trailing Metrics observes every pipelined completion.
        match client.call(&Request::Metrics).unwrap() {
            Response::Metrics { metrics } => {
                assert_eq!(metrics.total_ingested, 32);
                assert_eq!(
                    metrics.total_decisions
                        + metrics.per_domain.iter().map(|d| d.skipped).sum::<u64>(),
                    16
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        client.call(&Request::Shutdown).unwrap();
        server.join();
    }

    #[test]
    fn busy_tenants_surface_backpressure_on_the_wire() {
        let server = start_sim_server(1);
        let mut client = Client::connect(server.local_addr(), Proto::Binary).expect("connect");
        let spec = spec("greedy").with_ingest_budget(IngestBudget::delay(4));
        let domain = match client.call(&Request::CreateDomain { spec }).unwrap() {
            Response::Created { domain } => domain,
            other => panic!("unexpected {other:?}"),
        };
        match client.call(&Request::Ingest { domain, jobs: wire_jobs(4) }).unwrap() {
            Response::Ingested { accepted, .. } => assert_eq!(accepted, 4),
            other => panic!("unexpected {other:?}"),
        }
        match client.call(&Request::Ingest { domain, jobs: wire_jobs(4) }).unwrap() {
            Response::Busy { domain: d, retry_after_micros } => {
                assert_eq!(d, domain);
                assert!(retry_after_micros > 0);
            }
            other => panic!("unexpected {other:?}"),
        }
        match client.call(&Request::Metrics).unwrap() {
            Response::Metrics { metrics } => assert_eq!(metrics.total_delayed, 4),
            other => panic!("unexpected {other:?}"),
        }
        client.call(&Request::Shutdown).unwrap();
        server.join();
    }

    #[test]
    fn bare_jsonl_without_negotiation_prefix_still_works() {
        // A raw `nc`-style session: first byte is `"`, not a prefix.
        let server = start_sim_server(1);
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        let mut round = |request: &[u8]| {
            writer.write_all(request).expect("send");
            line.clear();
            reader.read_line(&mut line).expect("read");
            decode::<Response>(&line).expect("parse")
        };
        match round(b"\"Hello\"\n") {
            Response::Hello { proto, .. } => assert_eq!(proto, PROTO_VERSION),
            other => panic!("unexpected {other:?}"),
        }
        // A line that is not text is answered, and the session goes on.
        match round(b"\"He\xffllo\"\n") {
            Response::Error { message } => assert_eq!(message, "request is not valid UTF-8"),
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(round(b"\"Hello\"\n"), Response::Hello { .. }));
        assert_eq!(round(b"\"Shutdown\"\n"), Response::ShuttingDown);
        server.join();
    }

    #[test]
    fn jsonl_line_over_the_frame_cap_is_refused() {
        // A line with no end in sight must not grow the session's buffer
        // without bound: at the binary frame cap it is answered with an
        // error and the connection dropped.
        let server = start_sim_server(1);
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
        let chunk = vec![b'x'; 64 * 1024];
        stream.write_all(&[codec::JSONL_PREFIX]).expect("send");
        for _ in 0..codec::MAX_FRAME_LEN / chunk.len() {
            stream.write_all(&chunk).expect("send");
        }
        let mut reply = String::new();
        stream.read_to_string(&mut reply).expect("reply, then end of stream");
        match decode::<Response>(&reply).expect("parse") {
            Response::Error { message } => assert!(message.contains("exceeds cap"), "{message}"),
            other => panic!("unexpected {other:?}"),
        }
        server.request_shutdown();
        server.join();
    }

    /// Drops the first accepted connection before its handshake.
    struct DropFirst;

    impl FaultInjector for DropFirst {
        fn drop_connection(&self, index: u64) -> bool {
            index == 1
        }
    }

    #[test]
    fn retrying_client_rides_out_a_dropped_connection() {
        for proto in [Proto::Jsonl, Proto::Binary] {
            let server = Server::start(ServerConfig {
                addr: "127.0.0.1:0".into(),
                shards: 1,
                clock: ClockMode::Sim,
                faults: Arc::new(DropFirst),
                ..ServerConfig::default()
            })
            .expect("start server");
            let retry = RetryPolicy { max_attempts: 4, ..RetryPolicy::default() };
            let mut client =
                Client::connect_retry(server.local_addr(), proto, retry).expect("connect");
            assert!(matches!(client.call(&Request::Hello).unwrap(), Response::Hello { .. }));
            assert_eq!(client.stats().reconnects, 1, "{proto:?}");
            client.call(&Request::Shutdown).unwrap();
            server.join();
        }
    }

    /// Panics the next instrumented shard op once armed.
    struct PanicOnce(AtomicBool);

    impl FaultInjector for PanicOnce {
        fn shard_panic(&self, _shard: usize, _index: u64) -> bool {
            self.0.swap(false, Ordering::SeqCst)
        }
    }

    #[test]
    fn shard_panic_mid_op_is_answered_and_the_session_goes_on() {
        for proto in [Proto::Jsonl, Proto::Binary] {
            let faults = Arc::new(PanicOnce(AtomicBool::new(false)));
            let server = Server::start(ServerConfig {
                addr: "127.0.0.1:0".into(),
                shards: 1,
                clock: ClockMode::Sim,
                faults: Arc::clone(&faults) as Arc<dyn FaultInjector>,
                ..ServerConfig::default()
            })
            .expect("start server");
            let mut client = Client::connect(server.local_addr(), proto).expect("connect");
            // A lost reply fails the read instead of hanging the test.
            let timeout = Some(Duration::from_secs(20));
            client
                .set_retry(RetryPolicy { max_attempts: 1, timeout, ..RetryPolicy::default() })
                .expect("timeout");
            let domain = match client.call(&Request::CreateDomain { spec: spec("p") }).unwrap() {
                Response::Created { domain } => domain,
                other => panic!("unexpected {other:?}"),
            };
            faults.0.store(true, Ordering::SeqCst);
            // The reply behind the panicking op must not wait on it.
            let requests = [Request::Ingest { domain, jobs: wire_jobs(2) }, Request::Hello];
            let responses = client.call_pipelined(&requests, 2).expect("both answered");
            match &responses[0] {
                Response::Error { message } => assert_eq!(message, "shard worker unavailable"),
                other => panic!("unexpected {other:?}"),
            }
            assert!(matches!(responses[1], Response::Hello { .. }), "{proto:?}");
            client.call(&Request::Shutdown).unwrap();
            server.join();
        }
    }

    #[test]
    fn unsupported_binary_version_is_rejected_with_an_error_frame() {
        let server = start_sim_server(1);
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream.write_all(&[BINARY_PREFIX, 99]).expect("send");
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).expect("read");
        let (corr, body) = codec::take_frame(&mut raw).expect("frame").expect("complete");
        assert_eq!(corr, 0);
        match codec::decode_binary::<Response>(&body).expect("decode") {
            Response::Error { message } => assert!(message.contains("version")),
            other => panic!("unexpected {other:?}"),
        }
        server.request_shutdown();
        server.join();
    }

    #[test]
    fn fleet_requests_work_over_the_wire() {
        // A deliberately tiny watermark forces hibernation churn under a
        // handful of domains; ticks run the maintenance sweep.
        let server = Server::start(ServerConfig {
            addr: "127.0.0.1:0".into(),
            shards: 2,
            clock: ClockMode::Sim,
            fleet: FleetConfig::default().with_watermark(6 * 1024),
            ..ServerConfig::default()
        })
        .expect("start server");
        let mut client = Client::connect(server.local_addr(), Proto::Binary).expect("connect");
        let mut domains = Vec::new();
        for i in 0..3 {
            match client.call(&Request::CreateDomain { spec: spec(&format!("f{i}")) }).unwrap() {
                Response::Created { domain } => domains.push(domain),
                other => panic!("unexpected {other:?}"),
            }
        }
        client.call(&Request::Tick { micros: MIN }).unwrap();
        match client.call(&Request::Metrics).unwrap() {
            Response::Metrics { metrics } => {
                assert_eq!(metrics.domains, 3);
                assert!(metrics.resident_domains < 3, "watermark hibernated cold domains");
                assert!(metrics.total_hibernations >= 1);
                assert!(metrics.per_domain.iter().any(|d| !d.resident));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Explicit hibernate, then a touch wakes the domain transparently.
        match client.call(&Request::Hibernate { domain: domains[0] }).unwrap() {
            Response::Hibernated { domain, .. } => assert_eq!(domain, domains[0]),
            other => panic!("unexpected {other:?}"),
        }
        match client.call(&Request::Ingest { domain: domains[0], jobs: wire_jobs(2) }).unwrap() {
            Response::Ingested { accepted, .. } => assert_eq!(accepted, 2),
            other => panic!("unexpected {other:?}"),
        }
        // Migrate to the other shard; bad targets error without dropping
        // the connection.
        let shard = match client.call(&Request::Metrics).unwrap() {
            Response::Metrics { metrics } => {
                metrics.per_domain.iter().find(|d| d.id == domains[0]).unwrap().shard
            }
            other => panic!("unexpected {other:?}"),
        };
        match client.call(&Request::Migrate { domain: domains[0], shard: 1 - shard }).unwrap() {
            Response::Migrated { moved, .. } => assert!(moved),
            other => panic!("unexpected {other:?}"),
        }
        match client.call(&Request::Migrate { domain: domains[0], shard: 99 }).unwrap() {
            Response::Error { message } => assert!(message.contains("out of range")),
            other => panic!("unexpected {other:?}"),
        }
        match client.call(&Request::Rebalance).unwrap() {
            Response::Rebalanced { .. } => {}
            other => panic!("unexpected {other:?}"),
        }
        // The migrated domain still answers with its state intact.
        match client.call(&Request::Advance { domain: domains[0], steps: 1 }).unwrap() {
            Response::Advanced { decisions, .. } => assert_eq!(decisions.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
        client.call(&Request::Shutdown).unwrap();
        server.join();
    }

    #[test]
    fn snapshot_restore_across_server_instances() {
        let server = start_sim_server(2);
        let mut client = Client::connect(server.local_addr(), Proto::Jsonl).expect("connect");
        let domain = match client.call(&Request::CreateDomain { spec: spec("resume") }).unwrap() {
            Response::Created { domain } => domain,
            other => panic!("unexpected {other:?}"),
        };
        let jobs: Vec<JobSpec> =
            (0..3).map(|i| JobSpec::new(0, 0, i * MIN, vec![TaskSpec::map(30 * SEC)])).collect();
        client.call(&Request::Ingest { domain, jobs }).unwrap();
        client.call(&Request::Advance { domain, steps: 1 }).unwrap();
        let snapshot = match client.call(&Request::Snapshot).unwrap() {
            Response::Snapshot { snapshot } => snapshot,
            other => panic!("unexpected {other:?}"),
        };
        client.call(&Request::Shutdown).unwrap();
        server.join();

        // A fresh daemon restores the state and keeps counting from there —
        // over the binary codec this time.
        let server2 = Server::start(ServerConfig {
            addr: "127.0.0.1:0".into(),
            shards: 4, // shard count need not match
            clock: ClockMode::Sim,
            ..ServerConfig::default()
        })
        .expect("start server 2");
        let mut client2 = Client::connect(server2.local_addr(), Proto::Binary).expect("connect");
        match client2.call(&Request::Restore { snapshot }).unwrap() {
            Response::Restored { domains } => assert_eq!(domains, vec![domain]),
            other => panic!("unexpected {other:?}"),
        }
        match client2.call(&Request::Metrics).unwrap() {
            Response::Metrics { metrics } => {
                assert_eq!(metrics.total_decisions, 1);
                assert_eq!(metrics.total_ingested, 3);
            }
            other => panic!("unexpected {other:?}"),
        }
        client2.call(&Request::Shutdown).unwrap();
        server2.join();
    }
}
