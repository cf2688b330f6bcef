//! `serve-read` and `serve-write`: a child `ringjoin serve --shards 2`
//! driven over loopback by the benchmark's own client connections.

use crate::data::{self, Digest, Reference, Rng, TOP_K};
use crate::proc::{copy_dir, dir_bytes, ServerProc};
use crate::replay::{self, Buffer, Config};
use crate::report::{Report, Tail};
use crate::stats::{median, ratio, summarize};
use crate::trace::Tracer;
use crate::Ctx;
use ringjoin_core::{pair_keys, IndexKind, RcjAlgorithm, RcjPair};
use ringjoin_geom::{pt, Item};
use ringjoin_server::proto::{self, Reply, Request};
use ringjoin_server::{Client, Mutation, ServerError, ShardedEngine, TopologyConfig};
use ringjoin_storage::Wal;
use std::io;
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

const SHARDS: usize = 2;

/// How many times a serve run sets its server up; `setup_s` is the median.
const SETUP_REPS: usize = 9;

/// Open-loop `TOPK` rate of serve-read, about a quarter of what the
/// server sustains on one connection with nothing else running. Gaps
/// between sends are drawn uniformly from half to one and a half times
/// the mean, from the seed: a fixed period would lock into phase with the
/// closed-loop JOINs and make each run's latencies depend on that phase.
const TOPK_RATE_PER_S: f64 = 4.5;

/// Think time of the serve-read analyst between the reply to one `JOIN`
/// and the next `JOIN`, as a multiple of that `JOIN`'s time, drawn like
/// the `TOPK` gaps from half to one and a half times the mean. Each shard
/// worker serves one request at a time, so a `TOPK` that arrives while
/// the workers compute a `JOIN` waits for the rest of it. With this think
/// time about a third of the `TOPK`s wait: the median `TOPK` is one that
/// found the workers idle and the tail one that waited. Without it nearly
/// every `TOPK` waits a uniformly random part of a `JOIN`. Scaling it with
/// the `JOIN` keeps that share the same when the machine or the program
/// runs faster or slower, so the median stays on the same side.
const THINK_PER_JOIN: f64 = 1.6;

/// Latency limit of one serve-read `TOPK`, timed from its due time.
const TOPK_SLO_MS: f64 = 400.0;

/// Mutations per serve-write batch: enough that the batch's own work
/// (catalog validation, WAL encode, incremental index updates on every
/// shard) outweighs the fsync, whose latency on a shared virtual disk
/// comes in bursts.
const BATCH_OPS: usize = 1024;

/// The serve-write batch after which `peak_rss_mb` reads the server's
/// VmHWM (or at the kill, if a run acknowledges fewer batches). The
/// server's memory grows with every batch, and after about 70 batches it
/// grows in jumps of up to 50 MB that come at different batches for
/// different seeds. Read at the kill, the figure would depend on how many
/// batches a run managed and on where its jumps fell; the output still
/// prints it.
const RSS_AT_BATCH: u64 = 64;

/// How long the open-loop reader waits for replies after the last send.
const GRACE: Duration = Duration::from_secs(10);

fn server_io(e: ServerError) -> io::Error {
    io::Error::other(e.to_string())
}

fn join_request() -> Request {
    Request::Join {
        outer: "q".into(),
        inner: "p".into(),
        algo: RcjAlgorithm::Obj,
        bounds: None,
    }
}

fn topk_request() -> Request {
    Request::TopK {
        outer: "q".into(),
        inner: "p".into(),
        k: TOP_K,
    }
}

fn keys(pairs: &[RcjPair]) -> Vec<(u64, u64)> {
    pairs.iter().map(RcjPair::key).collect()
}

/// A server brought up the way every serve run starts: inputs written,
/// server spawned, both datasets loaded.
struct Started {
    p: Vec<Item>,
    q: Vec<Item>,
    server: ServerProc,
    client: Client,
    data_dir: Option<PathBuf>,
}

/// Writes the inputs, spawns the server and loads both datasets; returns
/// the server, its client, its data directory and the time all that took.
fn start(
    ctx: &Ctx,
    rep: usize,
    durable: bool,
    p: &[Item],
    q: &[Item],
) -> io::Result<(ServerProc, Client, Option<PathBuf>, f64)> {
    let t = Instant::now();
    data::write_inputs(&ctx.work, p, q)?;
    let data_dir = durable.then(|| ctx.work.join(format!("data-{rep}")));
    let shards = SHARDS.to_string();
    let mut flags = vec!["--shards", shards.as_str()];
    let dir_text = data_dir.as_ref().map(|d| d.display().to_string());
    if let Some(d) = &dir_text {
        flags.extend(["--data-dir", d.as_str()]);
    }
    let server = ServerProc::spawn(
        &ctx.bin,
        &flags,
        &ctx.work.join("addr"),
        &ctx.work.join(format!("server-{rep}.log")),
    )?;
    let mut client = Client::connect(server.addr).map_err(server_io)?;
    client.load("p", IndexKind::Rtree, p).map_err(server_io)?;
    client.load("q", IndexKind::Rtree, q).map_err(server_io)?;
    Ok((server, client, data_dir, t.elapsed().as_secs_f64()))
}

/// Makes the inputs once, then sets up `SETUP_REPS` times, stopping all
/// but the last server; records the median as `setup_s`. Making the
/// inputs is the benchmark's own work and is not timed.
fn setup(ctx: &Ctx, durable: bool, report: &mut Report) -> io::Result<Started> {
    let (p, q) = data::inputs(ctx.seed);
    let mut times = Vec::new();
    let mut last: Option<(ServerProc, Client, Option<PathBuf>)> = None;
    for rep in 0..SETUP_REPS {
        if let Some((mut server, mut client, _)) = last.take() {
            client.shutdown().map_err(server_io)?;
            server.wait_or_kill(Duration::from_secs(10));
        }
        let (server, client, data_dir, secs) = start(ctx, rep, durable, &p, &q)?;
        times.push(secs);
        last = Some((server, client, data_dir));
    }
    report.put("setup_s", median(&times));
    let (server, client, data_dir) = last.expect("SETUP_REPS is at least 1");
    Ok(Started {
        p,
        q,
        server,
        client,
        data_dir,
    })
}

/// `STATS` status-line fields and body of the running server.
struct Stats {
    reply: Reply,
}

impl Stats {
    fn fetch(client: &mut Client) -> io::Result<Stats> {
        Ok(Stats {
            reply: client.request(&Request::Stats).map_err(server_io)?,
        })
    }

    fn num(&self, key: &str) -> f64 {
        self.reply
            .field(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0)
    }

    /// The epoch the catalog line reports for `dataset`.
    fn epoch(&self, dataset: &str) -> Option<u64> {
        let prefix = format!("dataset {dataset} ");
        let line = self.reply.body.lines().find(|l| l.starts_with(&prefix))?;
        line.split_whitespace()
            .find_map(|w| w.strip_prefix("epoch="))
            .and_then(|v| v.parse().ok())
    }

    fn put_server_layers(&self, report: &mut Report) {
        let (hits, misses) = (self.num("plan_cache_hits"), self.num("plan_cache_misses"));
        report.put("server.plan_cache.hit_frac", ratio(hits, hits + misses));
        report.put("server.pool.hit_rate", self.num("pool_hit_rate"));
        report.put("server.pool.faults", self.num("pool_faults"));
        report.put("server.admission.admitted", self.num("admitted"));
        report.put("server.admission.rejected_busy", self.num("rejected_busy"));
    }
}

/// One client `JOIN` including decode; `None` when the server refused
/// or failed it. Spans split request from decode when tracing.
fn timed_join(
    client: &mut Client,
    tr: Option<&mut Tracer>,
    req_id: u64,
    reference: Option<Digest>,
    report: &mut Report,
) -> Option<(f64, Vec<RcjPair>)> {
    report.attempted += 1;
    let t0 = Instant::now();
    let reply = client.request(&join_request());
    let t1 = Instant::now();
    let decoded = reply.as_ref().ok().map(Client::decode_output);
    let t2 = Instant::now();
    let out = match decoded {
        Some(Ok(out)) => out,
        _ => {
            report.failed += 1;
            return None;
        }
    };
    if let Some(tr) = tr {
        tr.record(
            "server.client.join",
            req_id,
            (t0, t2),
            &[
                ("server.client.request", t0, t1),
                ("server.client.decode", t1, t2),
            ],
        );
        let bytes = reply.map(|r| r.body.len()).unwrap_or(0);
        report.put("server.proto.reply_bytes", bytes as f64);
    }
    if let Some(expected) = reference {
        let got = data::pair_digest(&out.pairs);
        if got != expected {
            report.wrong(format!("client JOIN gave {got:?}, reference {expected:?}"));
        }
    }
    Some(((t2 - t0).as_secs_f64() * 1e3, out.pairs))
}

/// Accounting of the open-loop `TOPK` stream.
#[derive(Default)]
struct OpenLoop {
    latencies_ms: Vec<f64>,
    lags_ms: Vec<f64>,
    sent: u64,
    busy: u64,
    failed: u64,
    timed_out: u64,
    slo_misses: u64,
    wrong: Option<String>,
}

/// Sends `TOPK k=10` on a schedule drawn from `seed` until `deadline`,
/// without ever waiting for a reply; a second thread reads the replies
/// and times each from its request's due time. Refused, failed and
/// unanswered requests count as latency-limit misses.
fn open_loop(
    addr: std::net::SocketAddr,
    seed: u64,
    deadline: Instant,
    expected: &[(u64, u64)],
) -> io::Result<OpenLoop> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut reader = stream.try_clone()?;
    let mut writer = stream.try_clone()?;
    let text = topk_request().encode();
    let (tx, rx) = mpsc::channel::<(u64, Instant)>();
    let total = AtomicU64::new(u64::MAX);
    let reader_done = AtomicBool::new(false);
    let mut rng = Rng::new(seed ^ 0x544f_504b);
    let start = Instant::now();
    std::thread::scope(|s| -> io::Result<OpenLoop> {
        let send = s.spawn(|| -> io::Result<Vec<f64>> {
            let mut lags = Vec::new();
            let mut i = 0u64;
            let mut due = start;
            let result = loop {
                due += Duration::from_secs_f64((0.5 + rng.unit()) / TOPK_RATE_PER_S);
                if due >= deadline {
                    break Ok(());
                }
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                lags.push(due.elapsed().as_secs_f64() * 1e3);
                i += 1;
                let _ = tx.send((i, due));
                let frame = proto::encode_request_id(i, &text);
                if let Err(e) = proto::write_frame(&mut writer, frame.as_bytes()) {
                    break Err(e);
                }
            };
            total.store(i, Ordering::SeqCst);
            drop(tx);
            result.map(|()| lags)
        });
        let (total, reader_done) = (&total, &reader_done);
        let recv = s.spawn(move || {
            let mut acc = OpenLoop::default();
            let mut received = 0u64;
            while received < total.load(Ordering::SeqCst) {
                let payload = match proto::read_frame(&mut reader) {
                    Ok(Some(p)) => p,
                    _ => break,
                };
                let now = Instant::now();
                received += 1;
                let (id, outcome) = Reply::parse_with_id(&payload);
                // Replies come back in request order: the due times of
                // requests sent before this one were answered already.
                let due = loop {
                    match rx.recv() {
                        Ok((pid, due)) if Some(pid) == id => break Some(due),
                        Ok(_) => continue,
                        Err(_) => break None,
                    }
                };
                let Some(due) = due else {
                    acc.failed += 1;
                    continue;
                };
                let ms = (now - due).as_secs_f64() * 1e3;
                match outcome {
                    Ok(reply) => match proto::parse_pairs(&reply.body) {
                        Ok(pairs) => {
                            let got = keys(&pairs);
                            if got != expected && acc.wrong.is_none() {
                                acc.wrong =
                                    Some(format!("TOPK gave {got:?}, reference {expected:?}"));
                            }
                            acc.latencies_ms.push(ms);
                            if ms > TOPK_SLO_MS {
                                acc.slo_misses += 1;
                            }
                        }
                        Err(_) => {
                            acc.failed += 1;
                            acc.slo_misses += 1;
                        }
                    },
                    Err(ServerError::Busy { .. }) => {
                        acc.busy += 1;
                        acc.slo_misses += 1;
                    }
                    Err(_) => {
                        acc.failed += 1;
                        acc.slo_misses += 1;
                    }
                }
            }
            reader_done.store(true, Ordering::SeqCst);
            acc
        });
        let lags = send.join().expect("sender thread panicked");
        let grace_end = Instant::now() + GRACE;
        while !reader_done.load(Ordering::SeqCst) && Instant::now() < grace_end {
            std::thread::sleep(Duration::from_millis(5));
        }
        // Unblocks a reader still waiting for replies that never came.
        let _ = stream.shutdown(Shutdown::Both);
        let mut acc = recv.join().expect("reader thread panicked");
        acc.lags_ms = lags?;
        acc.sent = total.load(Ordering::SeqCst);
        let answered = acc.latencies_ms.len() as u64 + acc.busy + acc.failed;
        acc.timed_out = acc.sent.saturating_sub(answered);
        acc.slo_misses += acc.timed_out;
        Ok(acc)
    })
}

/// In-process counterparts of the serving layers: the CLI sequence
/// replayed resident (the core layers), and a `ShardedEngine` with the
/// server's configuration (load, join, top-k, reply encode and parse).
fn in_process_layers(
    ctx: &Ctx,
    tr: &mut Tracer,
    req: &mut u64,
    s: &Started,
    data_dir: Option<PathBuf>,
    reference: &Reference,
    report: &mut Report,
) -> io::Result<ShardedEngine> {
    let cfg = Config {
        buffer: Buffer::Unbounded,
        on_disk: None,
        threads: 1,
    };
    replay::measure_layers(tr, req, &ctx.work, &cfg, reference, report, |n| n < 2);

    let engine = ShardedEngine::with_topology(TopologyConfig {
        shards: SHARDS,
        data_dir,
        ..TopologyConfig::default()
    })
    .map_err(server_io)?;
    *req += 1;
    let root = tr.begin("sharded.load", *req);
    tr.span("server.sharded.load", *req, || {
        engine.load("p", s.p.clone(), IndexKind::Rtree)
    })
    .map_err(server_io)?;
    tr.span("server.sharded.load", *req, || {
        engine.load("q", s.q.clone(), IndexKind::Rtree)
    })
    .map_err(server_io)?;
    tr.end(root);
    report.put(
        "server.sharded.load_ms",
        median(&tr.per_request_self_ms("server.sharded.load")),
    );
    for _ in 0..3 {
        *req += 1;
        let root = tr.begin("sharded.join", *req);
        let out = tr
            .span("server.sharded.join", *req, || {
                engine.join("q", "p", RcjAlgorithm::Obj, None)
            })
            .map_err(server_io)?;
        let text = tr.span("server.proto.encode_pairs", *req, || {
            proto::encode_pairs(&out.pairs)
        });
        let back = tr
            .span("server.proto.parse_pairs", *req, || {
                proto::parse_pairs(&text)
            })
            .map_err(server_io)?;
        tr.end(root);
        if data::pair_digest(&back) != reference.join {
            report.wrong("in-process sharded join differs from the reference".into());
        }
    }
    for _ in 0..50 {
        *req += 1;
        let out = tr
            .span("server.sharded.topk", *req, || {
                engine.top_k("q", "p", TOP_K)
            })
            .map_err(server_io)?;
        std::hint::black_box(out);
    }
    for name in [
        "server.sharded.join",
        "server.proto.encode_pairs",
        "server.proto.parse_pairs",
        "server.sharded.topk",
    ] {
        report.put(&format!("{name}_ms"), median(&tr.durations_ms(name)));
    }
    Ok(engine)
}

/// Client-side layer split: request minus in-process sharded compute
/// and encode is the transport; decode is measured directly.
fn client_layers(tr: &Tracer, report: &mut Report, wall_ms: f64) {
    let request = median(&tr.durations_ms("server.client.request"));
    let decode = median(&tr.durations_ms("server.client.decode"));
    let join = report
        .get("server.sharded.join_ms")
        .expect("measured in process");
    let encode = report
        .get("server.proto.encode_pairs_ms")
        .expect("measured in process");
    report.put("server.client.request_ms", request);
    report.put("server.client.decode_ms", decode);
    report.put("server.transport_ms", request - join - encode);
    report.put(
        "trace.accounted_frac",
        ratio(join + encode + decode, wall_ms),
    );
}

pub fn read(ctx: &Ctx) -> io::Result<Report> {
    let mut report = Report::new();
    let mut tr = Tracer::new();
    let mut req = 0u64;
    let mut s = setup(ctx, false, &mut report)?;
    let reference = data::reference(&s.p, &s.q);
    report.note(format!(
        "inputs: |Q| = {} (outer), |P| = {} (inner), {} result pairs; trees {} pages per replica, \
         unbounded pool: fits in the cache; TOPK open loop at {TOPK_RATE_PER_S}/s, limit {TOPK_SLO_MS} ms",
        s.q.len(),
        s.p.len(),
        reference.join.pairs,
        reference.tree_pages
    ));
    if ctx.trace {
        let engine = in_process_layers(ctx, &mut tr, &mut req, &s, None, &reference, &mut report)?;
        engine.shutdown();
    }
    let deadline = Instant::now() + ctx.seconds;
    let addr = s.server.addr;
    let (mut traced_walls, mut plain_walls) = (Vec::new(), Vec::new());
    let topk = std::thread::scope(|scope| {
        let gen = scope.spawn(|| open_loop(addr, ctx.seed, deadline, &reference.topk));
        let mut think = Rng::new(ctx.seed ^ 0x4a4f_494e);
        let mut last_ms = 0.0;
        let mut n = 0u64;
        while Instant::now() < deadline && report.correct {
            n += 1;
            req += 1;
            let traced = ctx.trace && n % 2 == 1;
            let tracer = traced.then_some(&mut tr);
            if let Some((ms, _)) = timed_join(
                &mut s.client,
                tracer,
                req,
                Some(reference.join),
                &mut report,
            ) {
                last_ms = ms;
                if traced {
                    &mut traced_walls
                } else {
                    &mut plain_walls
                }
                .push(ms);
            }
            let pause =
                Duration::from_secs_f64((0.5 + think.unit()) * THINK_PER_JOIN * last_ms / 1e3);
            std::thread::sleep(pause.min(deadline.saturating_duration_since(Instant::now())));
        }
        gen.join().expect("open-loop thread panicked")
    })?;
    if let Some(w) = &topk.wrong {
        report.wrong(w.clone());
    }
    let stats = Stats::fetch(&mut s.client)?;
    let mut joins = plain_walls.clone();
    joins.extend(&traced_walls);
    report.timing(
        "op_ms",
        "client JOIN incl. decode (closed loop)",
        &joins,
        Tail::Pooled,
    );
    report.timing(
        "topk_ms",
        "TOPK k=10 from due time (open loop)",
        &topk.latencies_ms,
        Tail::Pooled,
    );
    report.attempted += topk.sent;
    report.failed += topk.busy + topk.failed + topk.timed_out;
    report.note(format!(
        "TOPK: {} sent, {} answered, {} refused busy, {} failed, {} timed out, {} over {TOPK_SLO_MS} ms",
        topk.sent,
        topk.latencies_ms.len(),
        topk.busy,
        topk.failed,
        topk.timed_out,
        topk.slo_misses
    ));
    report.put("peak_rss_mb", s.server.vm_hwm_kb() as f64 / 1024.0);
    if ctx.trace {
        stats.put_server_layers(&mut report);
        report.put(
            "loadgen.lag_ms",
            summarize(&topk.lags_ms).map_or(0.0, |x| x.tail),
        );
        report.put(
            "topk_slo_miss_frac",
            ratio(topk.slo_misses as f64, topk.sent as f64),
        );
        report.put(
            "failed_frac",
            ratio(report.failed as f64, report.attempted as f64),
        );
        client_layers(&tr, &mut report, median(&joins));
        // Tracing the client adds clock reads and span records per
        // JOIN; its overhead is the traced JOINs against the plain ones.
        report.put(
            "trace.overhead_frac",
            ratio(median(&traced_walls), median(&plain_walls)) - 1.0,
        );
        crate::finish_trace(ctx, &tr, &mut report)?;
    }
    s.client.shutdown().map_err(server_io)?;
    s.server.wait_or_kill(Duration::from_secs(10));
    Ok(report)
}

/// How far, in each coordinate, an inserted or moved point lands from
/// the input point it copies.
const JITTER: f64 = 5.0;

/// A seeded mutation batch against `p`, kinds in rotation. Inserted and
/// moved points land next to randomly chosen points of the input `base`,
/// so `p` keeps its clustered layout. Uniform points would spread it out
/// as the run goes on, and each `TOPK` would get cheaper the further the
/// run got: the median would then depend on how many batches a run
/// managed.
fn next_batch(
    i: u64,
    rng: &mut Rng,
    base: &[Item],
    live: &[u64],
    next_id: &mut u64,
) -> Vec<Mutation> {
    let point = |rng: &mut Rng| {
        let at = base[rng.below(base.len())].point;
        let mut near =
            |v: f64| (v + (rng.unit() - 0.5) * 2.0 * JITTER).clamp(0.0, ringjoin_datagen::DOMAIN);
        pt(near(at.x), near(at.y))
    };
    match i % 3 {
        0 => (0..BATCH_OPS)
            .map(|_| {
                *next_id += 1;
                Mutation::Insert(Item::new(*next_id, point(rng)))
            })
            .collect(),
        1 => (0..BATCH_OPS)
            .map(|_| Mutation::Upsert(Item::new(live[rng.below(live.len())], point(rng))))
            .collect(),
        _ => {
            let mut ids: Vec<u64> = (0..BATCH_OPS)
                .map(|_| live[rng.below(live.len())])
                .collect();
            ids.sort_unstable();
            ids.dedup();
            ids.into_iter().map(Mutation::Delete).collect()
        }
    }
}

/// The wire form of a batch; `next_batch` makes every batch one kind.
fn wire_request(ops: &[Mutation]) -> Request {
    let name = "p".to_string();
    let items = || {
        ops.iter()
            .filter_map(|m| match m {
                Mutation::Insert(it) | Mutation::Upsert(it) => Some(*it),
                Mutation::Delete(_) => None,
            })
            .collect()
    };
    match ops[0] {
        Mutation::Insert(_) => Request::Insert {
            name,
            items: items(),
        },
        Mutation::Upsert(_) => Request::Upsert {
            name,
            items: items(),
        },
        Mutation::Delete(_) => Request::Delete {
            name,
            ids: ops
                .iter()
                .filter_map(|m| match m {
                    Mutation::Delete(id) => Some(*id),
                    _ => None,
                })
                .collect(),
        },
    }
}

fn apply_in_process(engine: &mut ringjoin_core::Engine, ops: &[Mutation]) {
    let mut update = engine.update("p");
    for op in ops {
        update = match *op {
            Mutation::Insert(it) => update.insert([it]),
            Mutation::Upsert(it) => update.upsert([it]),
            Mutation::Delete(id) => update.delete([id]),
        };
    }
    update
        .apply()
        .expect("batches are valid against the live id set");
}

fn commit_live(live: &mut Vec<u64>, ops: &[Mutation]) {
    for op in ops {
        match *op {
            Mutation::Insert(it) => live.push(it.id),
            Mutation::Delete(id) => {
                let at = live
                    .iter()
                    .position(|&x| x == id)
                    .expect("deleted id is live");
                live.swap_remove(at);
            }
            Mutation::Upsert(_) => {}
        }
    }
}

pub fn write(ctx: &Ctx) -> io::Result<Report> {
    let mut report = Report::new();
    let mut tr = Tracer::new();
    let mut req = 0u64;
    let mut s = setup(ctx, true, &mut report)?;
    let data_dir = s.data_dir.clone().expect("durable setup");
    let reference = data::reference(&s.p, &s.q);
    report.note(format!(
        "inputs: |Q| = {} (outer), |P| = {} (inner); trees {} pages per replica, unbounded pool: \
         fits in the cache; batches of {BATCH_OPS} mutations to p, each followed by TOPK k=10",
        s.q.len(),
        s.p.len(),
        reference.tree_pages
    ));
    let mut oracle = data::engine(s.p.clone(), s.q.clone());
    let sharded = if ctx.trace {
        let dir = ctx.work.join("sharded-data");
        Some(in_process_layers(
            ctx,
            &mut tr,
            &mut req,
            &s,
            Some(dir),
            &reference,
            &mut report,
        )?)
    } else {
        None
    };
    let mut probe = match ctx.trace {
        true => Some(Wal::open(ctx.work.join("wal-probe"))?.1),
        false => None,
    };
    let base = Stats::fetch(&mut s.client)?;
    let mut live: Vec<u64> = s.p.iter().map(|it| it.id).collect();
    let mut rng = Rng::new(ctx.seed ^ 0x5752_4954_4553);
    let mut next_id = 1u64 << 40;
    let (mut updates, mut topks) = (Vec::new(), Vec::new());
    let (mut traced_walls, mut plain_walls) = (Vec::new(), Vec::new());
    let mut acked = 0u64;
    let mut rss_kb = None;
    let deadline = Instant::now() + ctx.seconds;
    let mut i = 0u64;
    while Instant::now() < deadline && report.correct {
        let ops = next_batch(i, &mut rng, &s.p, &live, &mut next_id);
        i += 1;
        req += 1;
        let wire = wire_request(&ops);
        report.attempted += 1;
        let t0 = Instant::now();
        let reply = s.client.request(&wire);
        let t1 = Instant::now();
        let ms = (t1 - t0).as_secs_f64() * 1e3;
        match reply {
            Ok(r) if r.field("epoch") == Some((acked + 1).to_string().as_str()) => {
                acked += 1;
                updates.push(ms);
                let traced = ctx.trace && i % 2 == 1;
                if traced {
                    &mut traced_walls
                } else {
                    &mut plain_walls
                }
                .push(ms);
                if traced {
                    tr.record("server.client.update", req, (t0, t1), &[]);
                }
            }
            Ok(r) => {
                report.wrong(format!(
                    "batch {i} acknowledged at epoch {:?}, expected {}",
                    r.field("epoch"),
                    acked + 1
                ));
                break;
            }
            Err(_) => {
                report.failed += 1;
                continue;
            }
        }
        commit_live(&mut live, &ops);
        if acked == RSS_AT_BATCH {
            rss_kb = Some(s.server.vm_hwm_kb());
        }
        if ctx.trace {
            tr.span("core.engine.update", req, || {
                apply_in_process(&mut oracle, &ops)
            });
            if let Some(engine) = &sharded {
                tr.span("server.sharded.update", req, || {
                    engine.update("p", ops.clone())
                })
                .map_err(server_io)?;
            }
            if let Some(wal) = probe.as_mut() {
                let payload = wire.encode();
                tr.span("storage.wal.append", req, || wal.append(payload.as_bytes()))?;
                tr.span("storage.wal.sync", req, || wal.sync())?;
            }
        } else {
            apply_in_process(&mut oracle, &ops);
        }
        report.attempted += 1;
        let t = Instant::now();
        match s.client.top_k("q", "p", TOP_K) {
            Ok(out) => {
                topks.push(t.elapsed().as_secs_f64() * 1e3);
                let expected = data::topk_keys(&oracle);
                if keys(&out.pairs) != expected {
                    report.wrong(format!(
                        "TOPK at epoch {acked} differs from the in-process engine"
                    ));
                }
            }
            Err(_) => report.failed += 1,
        }
    }
    // Each closed-loop iteration is short, so a burst of a few seconds in
    // which the machine is slow holds many samples of one run; the tails
    // are taken per window and the median over windows is reported.
    report.timing(
        "op_ms",
        "durable mutation batch until acknowledged (closed loop)",
        &updates,
        Tail::Windowed,
    );
    report.timing(
        "topk_ms",
        "TOPK k=10 on each new epoch",
        &topks,
        Tail::Windowed,
    );

    // The join sent just before the kill: its pair set must match the
    // in-process engine, and the recovered server must repeat it exactly.
    let mut join_walls = Vec::new();
    let before = if ctx.trace {
        let mut last = None;
        for _ in 0..3 {
            req += 1;
            last = timed_join(&mut s.client, Some(&mut tr), req, None, &mut report);
            join_walls.extend(last.as_ref().map(|(ms, _)| *ms));
        }
        last
    } else {
        timed_join(&mut s.client, None, req, None, &mut report)
    };
    let before = before.map(|(_, pairs)| pairs);
    if let Some(pairs) = &before {
        if pair_keys(pairs) != pair_keys(&data::collect_join(&oracle)) {
            report.wrong("JOIN before the kill differs from the in-process engine".into());
        }
    }
    let stats = Stats::fetch(&mut s.client)?;
    let end_kb = s.server.vm_hwm_kb();
    report.put("peak_rss_mb", rss_kb.unwrap_or(end_kb) as f64 / 1024.0);
    report.note(format!(
        "server VmHWM: {:.1} MB after batch {RSS_AT_BATCH}, {:.1} MB at the kill after {acked} batches",
        rss_kb.unwrap_or(end_kb) as f64 / 1024.0,
        end_kb as f64 / 1024.0
    ));
    s.server.kill();

    let live_items = (live.len() + s.q.len()) as f64;
    let disk = dir_bytes(&data_dir) as f64;
    let replay_ms = if ctx.trace {
        let copy = ctx.work.join("wal-copy");
        copy_dir(&data_dir.join("wal"), &copy)?;
        req += 1;
        let (records, _) = tr.span("storage.wal.replay", req, || Wal::open(&copy))?;
        std::hint::black_box(records);
        median(&tr.durations_ms("storage.wal.replay"))
    } else {
        0.0
    };

    let t = Instant::now();
    let mut restarted = ServerProc::spawn(
        &ctx.bin,
        &[
            "--shards",
            &SHARDS.to_string(),
            "--data-dir",
            &data_dir.display().to_string(),
        ],
        &ctx.work.join("addr"),
        &ctx.work.join("server-restart.log"),
    )?;
    let mut client = Client::connect(restarted.addr).map_err(server_io)?;
    report.attempted += 1;
    let first = client.top_k("q", "p", TOP_K).map_err(server_io)?;
    let recovery_s = t.elapsed().as_secs_f64();
    if keys(&first.pairs) != data::topk_keys(&oracle) {
        report.wrong("first TOPK after recovery differs from the in-process engine".into());
    }
    req += 1;
    let after = timed_join(&mut client, None, req, None, &mut report).map(|(_, pairs)| pairs);
    if before.is_some()
        && after.as_ref().map(|p| data::pair_digest(p))
            != before.as_ref().map(|p| data::pair_digest(p))
    {
        report.wrong("JOIN after recovery differs from the JOIN before the kill".into());
    }
    let recovered = Stats::fetch(&mut client)?;
    if recovered.epoch("p") != Some(acked) {
        report.wrong(format!(
            "recovered epoch {:?}, acknowledged batches {acked}",
            recovered.epoch("p")
        ));
    }
    report.note(format!(
        "recovery: {recovery_s:.3} s to the first correct TOPK; {acked} acknowledged batches; \
         {disk} bytes under --data-dir for {live_items} live items"
    ));
    client.shutdown().map_err(server_io)?;
    restarted.wait_or_kill(Duration::from_secs(10));

    if ctx.trace {
        stats.put_server_layers(&mut report);
        let records = stats.num("wal_records") - base.num("wal_records");
        let bytes = stats.num("wal_bytes") - base.num("wal_bytes");
        report.put("storage.wal.bytes_per_batch", ratio(bytes, records));
        report.put("server.stats.wal_records", stats.num("wal_records"));
        report.put("server.stats.wal_bytes", stats.num("wal_bytes"));
        report.put(
            "storage.wal.append_us",
            median(&tr.durations_ms("storage.wal.append")) * 1e3,
        );
        report.put(
            "storage.wal.sync_us",
            median(&tr.durations_ms("storage.wal.sync")) * 1e3,
        );
        report.put(
            "core.engine.update_ms",
            median(&tr.durations_ms("core.engine.update")),
        );
        let sharded_update = median(&tr.durations_ms("server.sharded.update"));
        report.put("server.sharded.update_ms", sharded_update);
        report.put("storage.wal.replay_ms", replay_ms);
        report.put("server.recovery.redrive_ms", recovery_s * 1e3 - replay_ms);
        report.put("recovery_s", recovery_s);
        report.put("disk_bytes_per_live_byte", ratio(disk, live_items * 24.0));
        report.put(
            "failed_frac",
            ratio(report.failed as f64, report.attempted as f64),
        );
        client_layers(&tr, &mut report, median(&join_walls));
        // The write path's own split: in-process sharded update against
        // the acknowledged client update.
        report.put(
            "trace.accounted_frac",
            ratio(sharded_update, median(&updates)),
        );
        report.put(
            "trace.overhead_frac",
            ratio(median(&traced_walls), median(&plain_walls)) - 1.0,
        );
        if let Some(engine) = sharded {
            engine.shutdown();
        }
        crate::finish_trace(ctx, &tr, &mut report)?;
    }
    Ok(report)
}
