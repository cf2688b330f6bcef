//! Cross-process shard workers: the worker-side TCP server
//! ([`ShardWorkerServer`]) and the coordinator-side backends that
//! reach it — [`RemoteShard`] for a connection to a running worker,
//! [`SpawnedShard`] for a child process the coordinator launches (and
//! relaunches) itself.
//!
//! The worker speaks the shard grammar of [`proto`](crate::proto)
//! (`HELLO`/`SLOAD`/`SJOIN`/`STOPK`/`SEXPLAIN`/`SHUTDOWN`) over the
//! same length-prefixed frames as the client protocol. Join replies
//! carry **leaf-tagged** pairs: merge keys are global outer-leaf
//! indices, so the coordinator's deterministic merge — and with it
//! byte-identity to a local run — survives the process hop.
//!
//! Failure semantics: any socket-level failure (reset, EOF, deadline)
//! surfaces as [`ShardFault::Gone`] after bounded in-place reconnect
//! attempts, which makes the topology fail the query over to a sibling
//! replica and hand the slot to the supervisor. A worker-reported
//! `ERR` is [`ShardFault::Request`]: the worker is alive, the request
//! is wrong, and no failover would change the answer. Whole-request
//! retries are safe because every worker operation is idempotent —
//! `SLOAD` *replaces* a dataset the worker already holds, and
//! `SUPDATE` carries the epoch it must produce (a worker already at
//! the target epoch answers without re-applying) — which is also what
//! makes the supervisor's replay log idempotent.

use crate::proto::{
    encode_rect, encode_stats_fields, parse_pairs, parse_rect, parse_tagged_pairs, push_pairs,
    push_tagged_pairs, read_frame, read_frame_idle, stats_from_reply, write_frame, FrameRead,
    Reply, ShardRequest,
};
use crate::sharded::{
    spawn_worker, ExplainReq, JoinReq, LoadReq, ShardMsg, SpillSpec, TopKReq, UpdateReq,
};
use crate::topology::{
    ExplainCall, JoinCall, LoadCall, LoadOutcome, ShardBackend, ShardFault, TopKCall, UpdateCall,
};
use crate::ServerError;
use ringjoin_core::planner::DatasetSummary;
use ringjoin_core::{RcjPair, RcjStats};
use ringjoin_geom::Rect;
use ringjoin_storage::BufferPool;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Idle-poll granularity of worker sessions (mirrors the coordinator
/// server's tick).
const IDLE_TICK: Duration = Duration::from_millis(100);

/// In-place reconnect attempts of [`RemoteShard`] before a request is
/// declared [`ShardFault::Gone`] and the slot fails over.
const RECONNECT_ATTEMPTS: u32 = 3;

/// Base backoff between reconnect attempts (doubled each retry).
const RECONNECT_BACKOFF: Duration = Duration::from_millis(25);

// ---------------------------------------------------------------------
// Worker side: the shard worker server
// ---------------------------------------------------------------------

/// Everything worker session threads share.
struct WorkerShared {
    /// The worker engine's mailbox (the same worker loop the local
    /// backend uses, behind TCP instead of process-local channels).
    tx: Sender<ShardMsg>,
    /// When set, `SLOAD`s whose cell misses this rectangle are
    /// rejected — the `--shard-of <rect>` placement contract.
    accepts: Option<Rect>,
    /// Fault injection: a killed worker stops replying and drops its
    /// sockets, exactly like a SIGKILLed process as seen from the
    /// coordinator.
    dead: AtomicBool,
    stop: AtomicBool,
    addr: SocketAddr,
}

/// A clonable control handle onto a running [`ShardWorkerServer`] —
/// the fault-injection hook of in-process wire tests.
#[derive(Clone)]
pub struct WorkerHandle {
    shared: Arc<WorkerShared>,
}

impl WorkerHandle {
    /// The worker's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Simulates a SIGKILL: the worker stops replying, drops every
    /// session socket without a farewell frame, and stops accepting.
    /// The coordinator observes exactly what a killed process looks
    /// like — a dead transport mid-request.
    pub fn kill(&self) {
        self.shared.dead.store(true, Ordering::SeqCst);
        self.shared.stop.store(true, Ordering::SeqCst);
        // Poke the accept loop awake so it observes the flag.
        let _ = TcpStream::connect(self.shared.addr);
    }
}

/// A shard worker process's serving half: one engine-owning worker
/// thread (identical to an in-process shard worker) behind a TCP
/// listener speaking the shard grammar. This is what
/// `ringjoin serve --shard-of <cell-spec>` runs.
pub struct ShardWorkerServer {
    listener: TcpListener,
    shared: Arc<WorkerShared>,
    engine_thread: Option<std::thread::JoinHandle<()>>,
}

impl ShardWorkerServer {
    /// Binds the worker listener and starts its engine thread.
    /// `accepts` restricts which partition cells this worker will
    /// `SLOAD` (`None` = any); `buffer_pages` bounds its private
    /// buffer pool (`0` = effectively unbounded).
    pub fn bind(
        addr: &str,
        accepts: Option<Rect>,
        buffer_pages: usize,
    ) -> Result<ShardWorkerServer, ServerError> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| ServerError::Io(format!("cannot bind {addr}: {e}")))?;
        let bound = listener
            .local_addr()
            .map_err(|e| ServerError::Io(format!("bound listener has no address: {e}")))?;
        let pool = BufferPool::new(if buffer_pages == 0 {
            usize::MAX / 2
        } else {
            buffer_pages
        });
        let (tx, engine_thread) = spawn_worker(pool);
        Ok(ShardWorkerServer {
            listener,
            shared: Arc::new(WorkerShared {
                tx,
                accepts,
                dead: AtomicBool::new(false),
                stop: AtomicBool::new(false),
                addr: bound,
            }),
            engine_thread: Some(engine_thread),
        })
    }

    /// The bound address (the actual port when `bind` asked for 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A control handle usable from other threads (fault injection,
    /// orderly remote stop).
    pub fn handle(&self) -> WorkerHandle {
        WorkerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Serves coordinator connections until `SHUTDOWN` (or
    /// [`WorkerHandle::kill`]), then drains the engine thread.
    pub fn serve(mut self) -> std::io::Result<()> {
        let mut sessions: Vec<std::thread::JoinHandle<()>> = Vec::new();
        loop {
            let (stream, _peer) = self.listener.accept()?;
            if self.shared.stop.load(Ordering::SeqCst) {
                break;
            }
            sessions.retain(|h| !h.is_finished());
            let shared = Arc::clone(&self.shared);
            sessions.push(std::thread::spawn(move || {
                let _ = serve_worker_session(stream, &shared);
            }));
        }
        for handle in sessions {
            let _ = handle.join();
        }
        let _ = self.shared.tx.send(ShardMsg::Shutdown);
        if let Some(handle) = self.engine_thread.take() {
            let _ = handle.join();
        }
        Ok(())
    }
}

/// One coordinator connection: frames in, shard requests through the
/// engine thread, frames out. A killed worker drops the socket
/// without a reply.
fn serve_worker_session(mut stream: TcpStream, shared: &WorkerShared) -> std::io::Result<()> {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(IDLE_TICK))?;
    loop {
        if shared.stop.load(Ordering::SeqCst) || shared.dead.load(Ordering::SeqCst) {
            return Ok(());
        }
        let payload = match read_frame_idle(&mut stream)? {
            FrameRead::Eof => return Ok(()),
            FrameRead::Idle => continue,
            FrameRead::Frame(payload) => payload,
        };
        let (reply, stop) = match ShardRequest::parse(&payload) {
            Ok(req) => handle_shard_request(req, shared),
            Err(e) => (Reply::encode_err(&e.to_string()), false),
        };
        // The kill switch may have flipped while the engine worked:
        // a dead worker never writes another byte.
        if shared.dead.load(Ordering::SeqCst) {
            return Ok(());
        }
        write_frame(&mut stream, reply.as_bytes())?;
        if stop {
            shared.stop.store(true, Ordering::SeqCst);
            // Poke the accept loop awake.
            let _ = TcpStream::connect(shared.addr);
            return Ok(());
        }
    }
}

/// Dispatches one parsed shard request against the worker engine.
/// Returns `(reply payload, stop after replying)`.
fn handle_shard_request(req: ShardRequest, shared: &WorkerShared) -> (String, bool) {
    let reply = match req {
        ShardRequest::Hello => {
            let accepts = match shared.accepts {
                Some(rect) => encode_rect(rect),
                None => "any".to_string(),
            };
            Ok(Reply::encode(
                &[("role", "shard".to_string()), ("accepts", accepts)],
                "",
            ))
        }
        ShardRequest::Shutdown => {
            return (Reply::encode(&[("bye", "1".to_string())], ""), true);
        }
        ShardRequest::Load {
            name,
            kind,
            cell,
            spill,
            writer,
            items,
        } => {
            if let Some(accepts) = shared.accepts {
                if !accepts.intersects(cell) {
                    return (
                        Reply::encode_err(&format!(
                            "worker accepts cell {} only, got {}",
                            encode_rect(accepts),
                            encode_rect(cell)
                        )),
                        false,
                    );
                }
            }
            let (reply, rx) = channel();
            let msg = ShardMsg::Load(LoadReq {
                name,
                kind,
                items,
                cell,
                spill: spill.map(|path| SpillSpec {
                    path: PathBuf::from(path),
                    writer,
                }),
                reply,
            });
            engine_round_trip(shared, msg, rx).map(|(leaves, extent, summary)| {
                Reply::encode(
                    &[
                        ("leaves", leaves.to_string()),
                        ("extent", encode_rect(extent)),
                        ("items", summary.items.to_string()),
                        ("pages", summary.pages.to_string()),
                        ("leaf_pages", summary.leaf_pages.to_string()),
                        ("kind", summary.kind.to_string()),
                    ],
                    "",
                )
            })
        }
        ShardRequest::Update {
            name,
            target_epoch,
            ops,
        } => {
            let (reply, rx) = channel();
            let msg = ShardMsg::Update(UpdateReq {
                name,
                ops: Arc::new(ops),
                target_epoch,
                reply,
            });
            engine_round_trip(shared, msg, rx).map(|(leaves, extent, summary)| {
                Reply::encode(
                    &[
                        ("leaves", leaves.to_string()),
                        ("extent", encode_rect(extent)),
                        ("items", summary.items.to_string()),
                        ("pages", summary.pages.to_string()),
                        ("leaf_pages", summary.leaf_pages.to_string()),
                        ("kind", summary.kind.to_string()),
                    ],
                    "",
                )
            })
        }
        ShardRequest::Join {
            outer,
            inner,
            algo,
            bounds,
        } => {
            let (reply, rx) = channel();
            let msg = ShardMsg::Join(JoinReq {
                outer,
                inner,
                algo,
                bounds,
                reply,
            });
            engine_round_trip(shared, msg, rx).map(|(tagged, stats)| {
                let mut fields = vec![("pairs", tagged.len().to_string())];
                fields.extend(encode_stats_fields(&stats).map(|(k, v)| (k, v)));
                let mut payload = Reply::encode(&fields, "");
                push_tagged_pairs(&mut payload, &tagged);
                payload
            })
        }
        ShardRequest::TopK { outer, inner, k } => {
            let (reply, rx) = channel();
            let msg = ShardMsg::TopK(TopKReq {
                outer,
                inner,
                k,
                reply,
            });
            engine_round_trip(shared, msg, rx).map(|(pairs, stats)| {
                let mut fields = vec![("pairs", pairs.len().to_string())];
                fields.extend(encode_stats_fields(&stats).map(|(k, v)| (k, v)));
                let mut payload = Reply::encode(&fields, "");
                push_pairs(&mut payload, &pairs);
                payload
            })
        }
        ShardRequest::Explain {
            outer,
            inner,
            algo,
            k,
        } => {
            let (reply, rx) = channel();
            let msg = ShardMsg::Explain(ExplainReq {
                outer,
                inner,
                algo,
                top_k: k,
                reply,
            });
            engine_round_trip(shared, msg, rx).map(|plan| Reply::encode(&[], &plan))
        }
    };
    match reply {
        Ok(payload) => (payload, false),
        Err(msg) => (Reply::encode_err(&msg), false),
    }
}

/// One round-trip through the worker engine thread.
fn engine_round_trip<T>(
    shared: &WorkerShared,
    msg: ShardMsg,
    rx: std::sync::mpsc::Receiver<Result<T, String>>,
) -> Result<T, String> {
    shared
        .tx
        .send(msg)
        .map_err(|_| "worker engine thread is gone".to_string())?;
    rx.recv()
        .map_err(|_| "worker engine thread died mid-request".to_string())?
}

// ---------------------------------------------------------------------
// Coordinator side: the remote backend
// ---------------------------------------------------------------------

/// A [`ShardBackend`] over a TCP connection to a shard worker, with
/// per-request socket deadlines and bounded in-place reconnects. See
/// the module docs for the failure semantics.
pub(crate) struct RemoteShard {
    addr: String,
    stream: Option<TcpStream>,
    timeout: Duration,
}

impl RemoteShard {
    /// Connects and handshakes eagerly, so a topology construction (or
    /// respawn) fails fast on an unreachable or mis-roled address.
    pub(crate) fn connect(addr: &str, timeout: Duration) -> Result<RemoteShard, String> {
        let mut shard = RemoteShard {
            addr: addr.to_string(),
            stream: None,
            timeout,
        };
        shard.ensure_connected()?;
        Ok(shard)
    }

    /// (Re)establishes the connection, including the `HELLO` role
    /// handshake: connecting a coordinator to another coordinator (or
    /// anything else speaking the protocol) is a configuration error
    /// caught here, not a hang later.
    fn ensure_connected(&mut self) -> Result<(), String> {
        if self.stream.is_some() {
            return Ok(());
        }
        let stream = TcpStream::connect(&self.addr)
            .map_err(|e| format!("connecting to worker {}: {e}", self.addr))?;
        stream.set_nodelay(true).ok();
        stream
            .set_read_timeout(Some(self.timeout))
            .map_err(|e| e.to_string())?;
        stream
            .set_write_timeout(Some(self.timeout))
            .map_err(|e| e.to_string())?;
        let mut stream = stream;
        let reply =
            Self::round_trip_on(&mut stream, &ShardRequest::Hello).map_err(|f| match f {
                ShardFault::Gone(m) | ShardFault::Request(m) => m,
            })?;
        match reply.field("role") {
            Some("shard") => {}
            other => {
                return Err(format!(
                    "peer {} is not a shard worker (role={})",
                    self.addr,
                    other.unwrap_or("?")
                ))
            }
        }
        self.stream = Some(stream);
        Ok(())
    }

    /// One request/response exchange on an established stream.
    fn round_trip_on(stream: &mut TcpStream, req: &ShardRequest) -> Result<Reply, ShardFault> {
        write_frame(stream, req.encode().as_bytes())
            .map_err(|e| ShardFault::Gone(format!("worker write failed: {e}")))?;
        let payload = read_frame(stream)
            .map_err(|e| ShardFault::Gone(format!("worker read failed: {e}")))?
            .ok_or_else(|| ShardFault::Gone("worker closed the connection".into()))?;
        Reply::parse(&payload).map_err(|e| ShardFault::Request(e.to_string()))
    }

    /// Sends one request with bounded whole-request retries. Safe
    /// because every shard operation is idempotent (see module docs);
    /// a worker-reported `ERR` is never retried.
    fn request(&mut self, req: &ShardRequest) -> Result<Reply, ShardFault> {
        let mut last = String::new();
        for attempt in 0..RECONNECT_ATTEMPTS {
            if attempt > 0 {
                // Deterministic jitter (no RNG dependency) keeps
                // concurrent retries from stampeding in lockstep.
                let jitter = (attempt as u64 * 13) % 11;
                std::thread::sleep(
                    RECONNECT_BACKOFF * 2u32.saturating_pow(attempt - 1)
                        + Duration::from_millis(jitter),
                );
            }
            if let Err(e) = self.ensure_connected() {
                last = e;
                continue;
            }
            let stream = self.stream.as_mut().expect("just connected");
            match Self::round_trip_on(stream, req) {
                Ok(reply) => return Ok(reply),
                Err(ShardFault::Request(msg)) => return Err(ShardFault::Request(msg)),
                Err(ShardFault::Gone(msg)) => {
                    // Drop the stream; the next attempt reconnects.
                    self.stream = None;
                    last = msg;
                }
            }
        }
        Err(ShardFault::Gone(last))
    }
}

/// Maps a wire `kind` back to the static name the planner summary
/// carries.
fn static_kind(kind: &str) -> Result<&'static str, ShardFault> {
    match kind {
        "rtree" => Ok("rtree"),
        "quadtree" => Ok("quadtree"),
        other => Err(ShardFault::Request(format!(
            "worker reported unknown index kind {other:?}"
        ))),
    }
}

fn field_u64(reply: &Reply, key: &str) -> Result<u64, ShardFault> {
    reply
        .field(key)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| ShardFault::Request(format!("worker reply lacks {key}=")))
}

/// Parses the shared `SLOAD`/`SUPDATE` reply shape (leaf count, owned
/// extent, dataset summary) back into a [`LoadOutcome`].
fn load_outcome_from_reply(reply: &Reply) -> Result<LoadOutcome, ShardFault> {
    let extent = reply
        .field("extent")
        .ok_or_else(|| ShardFault::Request("worker reply lacks extent=".into()))
        .and_then(|s| parse_rect(s).map_err(|e| ShardFault::Request(e.to_string())))?;
    let kind = static_kind(
        reply
            .field("kind")
            .ok_or_else(|| ShardFault::Request("worker reply lacks kind=".into()))?,
    )?;
    Ok(LoadOutcome {
        leaves: field_u64(reply, "leaves")? as usize,
        extent,
        summary: DatasetSummary {
            kind,
            items: field_u64(reply, "items")?,
            pages: field_u64(reply, "pages")?,
            leaf_pages: field_u64(reply, "leaf_pages")?,
        },
    })
}

impl ShardBackend for RemoteShard {
    fn load(&mut self, call: &LoadCall) -> Result<LoadOutcome, ShardFault> {
        let spill = match &call.spill {
            None => None,
            Some((path, _)) => {
                let path = path.to_str().ok_or_else(|| {
                    ShardFault::Request(format!("spill path {} is not valid UTF-8", path.display()))
                })?;
                if path.chars().any(char::is_whitespace) {
                    return Err(ShardFault::Request(format!(
                        "spill path {path:?} contains whitespace (paths are wire tokens)"
                    )));
                }
                Some(path.to_string())
            }
        };
        let req = ShardRequest::Load {
            name: call.name.clone(),
            kind: call.kind,
            cell: call.cell,
            spill,
            writer: call.spill.as_ref().is_some_and(|(_, w)| *w),
            items: call.items.as_ref().clone(),
        };
        let reply = self.request(&req)?;
        load_outcome_from_reply(&reply)
    }

    fn update(&mut self, call: &UpdateCall) -> Result<LoadOutcome, ShardFault> {
        let req = ShardRequest::Update {
            name: call.name.clone(),
            target_epoch: call.target_epoch,
            ops: call.ops.as_ref().clone(),
        };
        let reply = self.request(&req)?;
        load_outcome_from_reply(&reply)
    }

    fn join(&mut self, call: &JoinCall) -> Result<(Vec<(usize, RcjPair)>, RcjStats), ShardFault> {
        let req = ShardRequest::Join {
            outer: call.outer.clone(),
            inner: call.inner.clone(),
            algo: call.algo,
            bounds: call.bounds,
        };
        let reply = self.request(&req)?;
        let tagged = parse_tagged_pairs(&reply.body)
            .map_err(|e| ShardFault::Request(format!("bad tagged pair rows: {e}")))?;
        Ok((tagged, stats_from_reply(&reply)))
    }

    fn top_k(&mut self, call: &TopKCall) -> Result<(Vec<RcjPair>, RcjStats), ShardFault> {
        let req = ShardRequest::TopK {
            outer: call.outer.clone(),
            inner: call.inner.clone(),
            k: call.k,
        };
        let reply = self.request(&req)?;
        let pairs = parse_pairs(&reply.body)
            .map_err(|e| ShardFault::Request(format!("bad pair rows: {e}")))?;
        Ok((pairs, stats_from_reply(&reply)))
    }

    fn explain(&mut self, call: &ExplainCall) -> Result<String, ShardFault> {
        let req = ShardRequest::Explain {
            outer: call.outer.clone(),
            inner: call.inner.clone(),
            algo: call.algo,
            k: call.k,
        };
        Ok(self.request(&req)?.body)
    }

    fn shutdown(&mut self) {
        // Best effort, no reconnect: a worker that is already gone
        // needs no farewell.
        if let Some(mut stream) = self.stream.take() {
            let _ = Self::round_trip_on(&mut stream, &ShardRequest::Shutdown);
        }
    }
}

// ---------------------------------------------------------------------
// Coordinator side: self-spawned worker processes
// ---------------------------------------------------------------------

/// Distinguishes concurrently launched workers' address files within
/// one coordinator process.
static SPAWN_COUNTER: AtomicU64 = AtomicU64::new(0);

/// How long a spawned worker gets to bind and report its address.
const SPAWN_DEADLINE: Duration = Duration::from_secs(10);

/// How long an orderly `SHUTDOWN` gets before the child is killed.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(2);

/// A [`ShardBackend`] whose worker is a child process this
/// coordinator launched: `<program> serve --shard-of auto` on an
/// ephemeral loopback port, discovered through an address file. The
/// topology's supervisor respawns by simply launching another child —
/// always on a fresh port, which sidesteps `TIME_WAIT` rebinding.
pub(crate) struct SpawnedShard {
    child: std::process::Child,
    remote: RemoteShard,
}

impl SpawnedShard {
    /// Launches the worker and connects to it.
    pub(crate) fn launch(program: &Path, timeout: Duration) -> Result<SpawnedShard, String> {
        let addr_file = std::env::temp_dir().join(format!(
            "ringjoin-worker-{}-{}.addr",
            std::process::id(),
            SPAWN_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_file(&addr_file);
        let mut child = std::process::Command::new(program)
            .args([
                "serve",
                "--shard-of",
                "auto",
                "--addr",
                "127.0.0.1:0",
                "--addr-file",
            ])
            .arg(&addr_file)
            .stdin(std::process::Stdio::null())
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning worker {}: {e}", program.display()))?;
        let addr = match Self::await_addr(&addr_file, &mut child) {
            Ok(addr) => addr,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = std::fs::remove_file(&addr_file);
                return Err(e);
            }
        };
        let _ = std::fs::remove_file(&addr_file);
        let remote = match RemoteShard::connect(&addr, timeout) {
            Ok(remote) => remote,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        Ok(SpawnedShard { child, remote })
    }

    /// Polls the address file (newline-terminated by the worker once
    /// it is bound and serving) while watching for early child death.
    fn await_addr(addr_file: &Path, child: &mut std::process::Child) -> Result<String, String> {
        let deadline = Instant::now() + SPAWN_DEADLINE;
        loop {
            if let Ok(contents) = std::fs::read_to_string(addr_file) {
                if let Some(addr) = contents.strip_suffix('\n') {
                    return Ok(addr.trim().to_string());
                }
            }
            if let Ok(Some(status)) = child.try_wait() {
                return Err(format!("worker exited during startup: {status}"));
            }
            if Instant::now() >= deadline {
                return Err(format!(
                    "worker never reported its address to {}",
                    addr_file.display()
                ));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl ShardBackend for SpawnedShard {
    fn load(&mut self, call: &LoadCall) -> Result<LoadOutcome, ShardFault> {
        self.remote.load(call)
    }

    fn update(&mut self, call: &UpdateCall) -> Result<LoadOutcome, ShardFault> {
        self.remote.update(call)
    }

    fn join(&mut self, call: &JoinCall) -> Result<(Vec<(usize, RcjPair)>, RcjStats), ShardFault> {
        self.remote.join(call)
    }

    fn top_k(&mut self, call: &TopKCall) -> Result<(Vec<RcjPair>, RcjStats), ShardFault> {
        self.remote.top_k(call)
    }

    fn explain(&mut self, call: &ExplainCall) -> Result<String, ShardFault> {
        self.remote.explain(call)
    }

    fn shutdown(&mut self) {
        self.remote.shutdown();
        let deadline = Instant::now() + SHUTDOWN_GRACE;
        while Instant::now() < deadline {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                return;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    fn pid(&self) -> Option<u32> {
        Some(self.child.id())
    }
}

impl Drop for SpawnedShard {
    fn drop(&mut self) {
        // A dropped backend (failover path) must not leak a child.
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{ExplainCall, JoinCall, LoadCall, TopKCall};
    use ringjoin_core::{IndexKind, RcjAlgorithm};
    use ringjoin_geom::{pt, Item};

    fn items(n: usize, seed: u64, span: f64) -> Vec<Item> {
        ringjoin_testsupport::lcg_points(n, seed, span)
            .into_iter()
            .enumerate()
            .map(|(i, (x, y))| Item::new(i as u64, pt(x, y)))
            .collect()
    }

    /// Binds a worker on an ephemeral port, serving on its own thread.
    fn start_worker() -> (WorkerHandle, String) {
        let server = ShardWorkerServer::bind("127.0.0.1:0", None, 0).unwrap();
        let handle = server.handle();
        let addr = server.local_addr().to_string();
        std::thread::spawn(move || {
            let _ = server.serve();
        });
        (handle, addr)
    }

    #[test]
    fn remote_worker_round_trips_load_join_topk_explain() {
        let (_handle, addr) = start_worker();
        let mut shard = RemoteShard::connect(&addr, Duration::from_secs(10)).unwrap();
        let everything = Rect::new(
            pt(f64::NEG_INFINITY, f64::NEG_INFINITY),
            pt(f64::INFINITY, f64::INFINITY),
        );
        let out = shard
            .load(&LoadCall {
                name: "d".into(),
                kind: IndexKind::Rtree,
                items: Arc::new(items(150, 3, 800.0)),
                cell: everything,
                spill: None,
            })
            .unwrap();
        assert!(out.leaves > 0);
        assert_eq!(out.summary.items, 150);
        assert_eq!(out.summary.kind, "rtree");

        let (tagged, stats) = shard
            .join(&JoinCall {
                outer: "d".into(),
                inner: None,
                algo: RcjAlgorithm::Auto,
                bounds: None,
            })
            .unwrap();
        assert_eq!(stats.result_pairs as usize, tagged.len());
        // Tagged rows arrive in leaf order, ready for the global merge.
        assert!(tagged.windows(2).all(|w| w[0].0 <= w[1].0));

        let (pairs, _) = shard
            .top_k(&TopKCall {
                outer: "d".into(),
                inner: None,
                k: 5,
            })
            .unwrap();
        assert!(pairs.len() <= 5);

        let plan = shard
            .explain(&ExplainCall {
                outer: "d".into(),
                inner: None,
                algo: RcjAlgorithm::Auto,
                k: None,
            })
            .unwrap();
        assert!(plan.contains("self-join"), "{plan}");
        shard.shutdown();
    }

    #[test]
    fn worker_rejects_loads_outside_its_cell_and_wrong_roles_fail_fast() {
        let accepts = Rect::new(pt(0.0, 0.0), pt(100.0, 100.0));
        let server = ShardWorkerServer::bind("127.0.0.1:0", Some(accepts), 0).unwrap();
        let addr = server.local_addr().to_string();
        let handle = server.handle();
        std::thread::spawn(move || {
            let _ = server.serve();
        });
        let mut shard = RemoteShard::connect(&addr, Duration::from_secs(10)).unwrap();
        let far = Rect::new(pt(500.0, 500.0), pt(600.0, 600.0));
        let err = shard.load(&LoadCall {
            name: "d".into(),
            kind: IndexKind::Rtree,
            items: Arc::new(items(10, 5, 50.0)),
            cell: far,
            spill: None,
        });
        assert!(matches!(err, Err(ShardFault::Request(_))));
        handle.kill();
    }

    #[test]
    fn killed_worker_surfaces_gone_after_bounded_retries() {
        let (handle, addr) = start_worker();
        let mut shard = RemoteShard::connect(&addr, Duration::from_secs(2)).unwrap();
        handle.kill();
        let err = shard.explain(&ExplainCall {
            outer: "d".into(),
            inner: None,
            algo: RcjAlgorithm::Auto,
            k: None,
        });
        assert!(matches!(err, Err(ShardFault::Gone(_))), "want Gone");
    }
}
