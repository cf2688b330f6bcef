//! The wire protocol: length-prefixed UTF-8 frames over TCP.
//!
//! Every message — request or response — is one **frame**: a 4-byte
//! big-endian payload length followed by that many bytes of UTF-8 text.
//! A request payload is a command line (plus, for `LOAD`, a body of data
//! rows); a response payload is a status line (`OK key=value ...` or
//! `ERR message`) plus an optional body. One request yields exactly one
//! response; requests are served in order on a connection, so a client
//! may **pipeline**: send several frames back to back and read the
//! replies afterwards.
//!
//! | request | body | response body |
//! |---|---|---|
//! | `[#<id>] LOAD <name> <rtree\|quadtree>` | `id x y` rows | — |
//! | `[#<id>] INSERT <name>` | `id x y` rows | — (`OK epoch=..`) |
//! | `[#<id>] DELETE <name>` | `id` rows | — (`OK epoch=..`) |
//! | `[#<id>] UPSERT <name>` | `id x y` rows | — (`OK epoch=..`) |
//! | `[#<id>] JOIN <outer> <inner> [algo=..] [bounds=x0,y0,x1,y1 maxd=D]` | — | pair rows |
//! | `[#<id>] SELFJOIN <dataset> [algo=..] [bounds=.. maxd=..]` | — | pair rows |
//! | `[#<id>] TOPK <outer> <inner> <k>` | — | pair rows |
//! | `[#<id>] EXPLAIN <outer> [<inner>] [algo=..] [k=K]` | — | plan text |
//! | `[#<id>] STATS` | — | catalog text |
//! | `[#<id>] HELLO` | — | — (role handshake) |
//! | `[#<id>] SHUTDOWN` | — | — |
//!
//! # Shard-worker grammar
//!
//! A **shard worker** (`ringjoin serve --shard-of ...`) speaks the same
//! frame format but a different command set — the process form of the
//! in-process [`ShardedEngine`](crate::ShardedEngine) worker messages,
//! parsed as [`ShardRequest`]:
//!
//! | request | body | response |
//! |---|---|---|
//! | `HELLO` | — | `OK role=shard accepts=<rect\|any>` |
//! | `SLOAD <name> <kind> cell=<rect> [spill=<path> writer=<0\|1>]` | `id x y` rows | `OK leaves=.. extent=<rect> items=.. pages=.. leaf_pages=.. kind=..` |
//! | `SUPDATE <name> epoch=<n>` | `+ id x y` / `- id` / `^ id x y` rows | same fields as `SLOAD` |
//! | `SJOIN <outer> [inner=<name>] [algo=..] [bounds=.. maxd=..]` | — | counters + tagged pair rows |
//! | `STOPK <outer> <k> [inner=<name>]` | — | counters + pair rows |
//! | `SEXPLAIN <outer> [inner=<name>] [algo=..] [k=K]` | — | plan text |
//! | `SHUTDOWN` | — | — |
//!
//! The coordinator's merge keys are **global outer-leaf indices**, so
//! `SJOIN` replies carry leaf-tagged rows (`leaf p_id p_x p_y q_id q_x
//! q_y`) and the full [`RcjStats`] counter set — byte-identity of the
//! sharded answer survives the process hop because nothing is lost or
//! reordered on the wire. `HELLO` is the role handshake: a coordinator
//! answers `role=coordinator`, a worker `role=shard`, so a topology
//! misconfiguration (pointing `--workers` at another coordinator) fails
//! fast instead of misbehaving. Rects travel as `x0,y0,x1,y1` in the
//! same shortest-round-trip float form (`inf`/`-inf` included — the
//! outermost partition cells are unbounded).
//!
//! # Request IDs
//!
//! A request payload may start with a `#<id>` token (a `u64`); the
//! server echoes it back as the first status-line field (`OK id=<id>
//! ...`) or, on failure, right after the status word (`ERR id=<id>
//! message`). IDs let a pipelining client check that the in-order
//! replies really match its in-order requests. The framing is
//! version-tolerant in both directions: id-less requests are still
//! accepted (the reply then carries no `id`), and clients ignore
//! status-line fields they do not know.
//!
//! An overloaded server rejects work with `ERR [id=N] busy
//! retry_after_ms=<ms> (...)`; clients surface that as
//! [`ServerError::Busy`] carrying the retry hint.
//!
//! Pair rows are `p_id p_x p_y q_id q_x q_y` (floats in Rust's
//! shortest-round-trip `Display` form, so coordinates survive the wire
//! bit-exactly and a client can re-derive centers and radii without
//! loss). Numbers in command lines use the same convention.

use crate::sharded::{Mutation, RingBounds};
use crate::ServerError;
use ringjoin_core::{IndexKind, RcjAlgorithm, RcjPair, RcjStats};
use ringjoin_geom::{pt, Item, Rect};
use std::fmt::{self, Write as _};
use std::io::{Read, Write};

/// Hard cap on a frame payload (64 MiB): a malformed or hostile length
/// prefix must not make either end allocate unboundedly.
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// Writes one frame: 4-byte big-endian length, then the payload.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame exceeds u32 length")
    })?;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "frame exceeds MAX_FRAME",
        ));
    }
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Largest single read while receiving a payload. The receive buffer
/// grows with the bytes that actually arrive, so a corrupt or hostile
/// length prefix costs at most one chunk of allocation — not the 64 MiB
/// the prefix promises.
pub const READ_CHUNK: usize = 64 * 1024;

/// How many consecutive read-timeout ticks [`read_frame_idle`] tolerates
/// *inside* a frame before declaring the peer stalled. (Timeouts before
/// the first length byte are a normal idle connection, reported as
/// [`FrameRead::Idle`] so the caller can run housekeeping.)
const MID_FRAME_PATIENCE: u32 = 150;

/// Outcome of one read attempt on a connection with a read timeout.
#[derive(Debug)]
pub enum FrameRead {
    /// A complete frame payload.
    Frame(String),
    /// The read timeout expired with no frame in flight — the peer is
    /// connected but quiet. Poll your shutdown flag and try again.
    Idle,
    /// Clean end of stream before any length byte.
    Eof,
}

/// Reads one frame's payload. Returns `Ok(None)` on a clean end of
/// stream (EOF before any length byte); errors on truncated frames,
/// oversized lengths, non-UTF-8 payloads — and read timeouts, which a
/// blocking client treats as a hung server.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<String>> {
    match read_frame_inner(r, false)? {
        FrameRead::Frame(payload) => Ok(Some(payload)),
        FrameRead::Eof => Ok(None),
        FrameRead::Idle => unreachable!("strict reads never report Idle"),
    }
}

/// [`read_frame`] for a socket with a short read timeout: a timeout
/// between frames is reported as [`FrameRead::Idle`] instead of an
/// error, so a serving loop can interleave shutdown checks with reads.
/// A peer that stalls *mid-frame* for `MID_FRAME_PATIENCE` consecutive
/// ticks is an error.
pub fn read_frame_idle(r: &mut impl Read) -> std::io::Result<FrameRead> {
    read_frame_inner(r, true)
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

fn read_frame_inner(r: &mut impl Read, idle_ok: bool) -> std::io::Result<FrameRead> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    let mut stalls = 0u32;
    while filled < 4 {
        match r.read(&mut len_bytes[filled..]) {
            Ok(0) if filled == 0 => return Ok(FrameRead::Eof),
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "truncated frame length",
                ))
            }
            Ok(n) => {
                filled += n;
                stalls = 0;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) if idle_ok && is_timeout(&e) => {
                if filled == 0 {
                    return Ok(FrameRead::Idle);
                }
                stalls += 1;
                if stalls > MID_FRAME_PATIENCE {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "peer stalled mid-frame",
                    ));
                }
            }
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(len_bytes);
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME"),
        ));
    }
    // Chunked receive: allocation tracks bytes received, never the
    // (untrusted) length prefix.
    let mut payload: Vec<u8> = Vec::with_capacity((len as usize).min(READ_CHUNK));
    let mut chunk = [0u8; READ_CHUNK];
    let mut remaining = len as usize;
    let mut stalls = 0u32;
    while remaining > 0 {
        let want = remaining.min(READ_CHUNK);
        match r.read(&mut chunk[..want]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "truncated frame payload",
                ))
            }
            Ok(n) => {
                payload.extend_from_slice(&chunk[..n]);
                remaining -= n;
                stalls = 0;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) if idle_ok && is_timeout(&e) => {
                stalls += 1;
                if stalls > MID_FRAME_PATIENCE {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "peer stalled mid-frame",
                    ));
                }
            }
            Err(e) => return Err(e),
        }
    }
    String::from_utf8(payload)
        .map(FrameRead::Frame)
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "frame is not UTF-8"))
}

/// Prefixes a request payload with its `#<id>` token.
pub fn encode_request_id(id: u64, payload: &str) -> String {
    format!("#{id} {payload}")
}

/// Splits an optional leading `#<id>` token off a request payload,
/// returning the id (if any) and the rest of the payload. Id-less
/// payloads pass through untouched — the framing is optional.
pub fn split_request_id(payload: &str) -> Result<(Option<u64>, &str), ServerError> {
    let Some(rest) = payload.strip_prefix('#') else {
        return Ok((None, payload));
    };
    let end = rest.find(char::is_whitespace).unwrap_or(rest.len());
    let (digits, tail) = rest.split_at(end);
    let id: u64 = digits
        .parse()
        .map_err(|_| ServerError::BadRequest(format!("malformed request id {digits:?}")))?;
    Ok((Some(id), tail.strip_prefix(' ').unwrap_or(tail)))
}

/// A parsed client request.
#[derive(Clone, Debug)]
pub enum Request {
    /// Register a dataset on every shard.
    Load {
        /// Dataset name (no whitespace).
        name: String,
        /// Index kind to build.
        kind: IndexKind,
        /// The points.
        items: Vec<Item>,
    },
    /// Insert new points into a live dataset (whole batch refused if
    /// any id is already present).
    Insert {
        /// Dataset name.
        name: String,
        /// The new points.
        items: Vec<Item>,
    },
    /// Delete points from a live dataset by id (whole batch refused if
    /// any id is absent).
    Delete {
        /// Dataset name.
        name: String,
        /// The ids to remove.
        ids: Vec<u64>,
    },
    /// Insert-or-replace points in a live dataset (never refused).
    Upsert {
        /// Dataset name.
        name: String,
        /// The points.
        items: Vec<Item>,
    },
    /// Bichromatic join (`outer` drives, `inner` is probed).
    Join {
        /// Outer dataset name.
        outer: String,
        /// Inner dataset name.
        inner: String,
        /// Algorithm (default `Auto`).
        algo: RcjAlgorithm,
        /// Optional region-of-interest restriction.
        bounds: Option<RingBounds>,
    },
    /// Self-join of one dataset.
    SelfJoin {
        /// The dataset.
        dataset: String,
        /// Algorithm (default `Auto`).
        algo: RcjAlgorithm,
        /// Optional region-of-interest restriction.
        bounds: Option<RingBounds>,
    },
    /// The `k` most compact pairs, ascending ring diameter.
    TopK {
        /// Outer dataset name.
        outer: String,
        /// Inner dataset name.
        inner: String,
        /// How many pairs.
        k: usize,
    },
    /// Print the resolved plan plus the sharding postscript.
    Explain {
        /// Outer dataset name.
        outer: String,
        /// Inner dataset (`None` = self-join explain).
        inner: Option<String>,
        /// Algorithm (default `Auto`).
        algo: RcjAlgorithm,
        /// Optional top-k bound.
        k: Option<usize>,
    },
    /// Server catalog and counters.
    Stats,
    /// Role handshake: the server answers `role=coordinator` (a shard
    /// worker answers `role=shard` to its own grammar's `HELLO`).
    Hello,
    /// Stop the server after acknowledging.
    Shutdown,
}

/// Validates a dataset name for the wire: non-empty, no whitespace or
/// control characters (names are whitespace-delimited on the wire).
pub fn validate_name(name: &str) -> Result<(), ServerError> {
    if name.is_empty() {
        return Err(ServerError::BadRequest("empty dataset name".into()));
    }
    if name.chars().any(|c| c.is_whitespace() || c.is_control()) {
        return Err(ServerError::BadRequest(format!(
            "dataset name {name:?} contains whitespace or control characters"
        )));
    }
    Ok(())
}

fn kind_name(kind: IndexKind) -> &'static str {
    kind.name()
}

fn parse_kind(s: &str) -> Result<IndexKind, ServerError> {
    match s {
        "rtree" => Ok(IndexKind::Rtree),
        "quadtree" => Ok(IndexKind::Quadtree),
        other => Err(ServerError::BadRequest(format!(
            "unknown index kind {other:?}"
        ))),
    }
}

fn algo_name(algo: RcjAlgorithm) -> String {
    algo.name().to_lowercase()
}

fn parse_algo(s: &str) -> Result<RcjAlgorithm, ServerError> {
    RcjAlgorithm::from_name(s)
        .ok_or_else(|| ServerError::BadRequest(format!("unknown algorithm {s:?}")))
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, ServerError> {
    s.parse()
        .map_err(|_| ServerError::BadRequest(format!("invalid {what}: {s:?}")))
}

fn encode_bounds(out: &mut String, bounds: &Option<RingBounds>) {
    if let Some(rb) = bounds {
        out.push_str(&format!(
            " bounds={},{},{},{} maxd={}",
            rb.bounds.min.x, rb.bounds.min.y, rb.bounds.max.x, rb.bounds.max.y, rb.max_diameter
        ));
    }
}

/// Parses `algo=`/`bounds=`/`maxd=`/`k=` options from command-line
/// tokens; unknown options are a protocol error.
struct Options {
    algo: RcjAlgorithm,
    bounds: Option<Rect>,
    maxd: Option<f64>,
    k: Option<usize>,
}

fn parse_options(tokens: &[&str]) -> Result<Options, ServerError> {
    let mut opts = Options {
        algo: RcjAlgorithm::Auto,
        bounds: None,
        maxd: None,
        k: None,
    };
    for t in tokens {
        let (key, value) = t.split_once('=').ok_or_else(|| {
            ServerError::BadRequest(format!("expected key=value option, got {t:?}"))
        })?;
        match key {
            "algo" => opts.algo = parse_algo(value)?,
            "maxd" => opts.maxd = Some(parse_num(value, "maxd")?),
            "k" => opts.k = Some(parse_num(value, "k")?),
            "bounds" => {
                let nums: Vec<f64> = value
                    .split(',')
                    .map(|v| parse_num(v, "bounds coordinate"))
                    .collect::<Result<_, _>>()?;
                if nums.len() != 4 {
                    return Err(ServerError::BadRequest(
                        "bounds needs exactly x0,y0,x1,y1".into(),
                    ));
                }
                opts.bounds = Some(Rect::new(pt(nums[0], nums[1]), pt(nums[2], nums[3])));
            }
            other => return Err(ServerError::BadRequest(format!("unknown option {other:?}"))),
        }
    }
    Ok(opts)
}

fn ring_bounds(opts: &Options) -> Result<Option<RingBounds>, ServerError> {
    match (opts.bounds, opts.maxd) {
        (None, None) => Ok(None),
        (Some(bounds), Some(max_diameter)) => Ok(Some(RingBounds {
            bounds,
            max_diameter,
        })),
        _ => Err(ServerError::BadRequest(
            "bounds= and maxd= must be given together".into(),
        )),
    }
}

impl Request {
    /// Encodes the request as a frame payload.
    pub fn encode(&self) -> String {
        match self {
            Request::Load { name, kind, items } => {
                let mut out = format!("LOAD {name} {}\n", kind_name(*kind));
                encode_item_rows(&mut out, items);
                out
            }
            Request::Insert { name, items } => {
                let mut out = format!("INSERT {name}\n");
                encode_item_rows(&mut out, items);
                out
            }
            Request::Delete { name, ids } => {
                let mut out = format!("DELETE {name}\n");
                for id in ids {
                    push_row(&mut out, &[id]);
                }
                out
            }
            Request::Upsert { name, items } => {
                let mut out = format!("UPSERT {name}\n");
                encode_item_rows(&mut out, items);
                out
            }
            Request::Join {
                outer,
                inner,
                algo,
                bounds,
            } => {
                let mut out = format!("JOIN {outer} {inner} algo={}", algo_name(*algo));
                encode_bounds(&mut out, bounds);
                out
            }
            Request::SelfJoin {
                dataset,
                algo,
                bounds,
            } => {
                let mut out = format!("SELFJOIN {dataset} algo={}", algo_name(*algo));
                encode_bounds(&mut out, bounds);
                out
            }
            Request::TopK { outer, inner, k } => format!("TOPK {outer} {inner} {k}"),
            Request::Explain {
                outer,
                inner,
                algo,
                k,
            } => {
                let mut out = format!("EXPLAIN {outer}");
                if let Some(inner) = inner {
                    out.push_str(&format!(" {inner}"));
                }
                out.push_str(&format!(" algo={}", algo_name(*algo)));
                if let Some(k) = k {
                    out.push_str(&format!(" k={k}"));
                }
                out
            }
            Request::Stats => "STATS".to_string(),
            Request::Hello => "HELLO".to_string(),
            Request::Shutdown => "SHUTDOWN".to_string(),
        }
    }

    /// Parses a frame payload into a request.
    pub fn parse(payload: &str) -> Result<Request, ServerError> {
        let (line, body) = match payload.split_once('\n') {
            Some((line, body)) => (line, body),
            None => (payload, ""),
        };
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let Some((&cmd, args)) = tokens.split_first() else {
            return Err(ServerError::BadRequest("empty request".into()));
        };
        match cmd {
            "LOAD" => {
                let [name, kind] = args else {
                    return Err(ServerError::BadRequest(
                        "usage: LOAD <name> <rtree|quadtree>".into(),
                    ));
                };
                validate_name(name)?;
                let items = parse_item_rows(body)?;
                Ok(Request::Load {
                    name: name.to_string(),
                    kind: parse_kind(kind)?,
                    items,
                })
            }
            "INSERT" | "UPSERT" => {
                let [name] = args else {
                    return Err(ServerError::BadRequest(format!(
                        "usage: {cmd} <name> (with `id x y` data rows)"
                    )));
                };
                validate_name(name)?;
                let name = name.to_string();
                let items = parse_item_rows(body)?;
                Ok(if cmd == "INSERT" {
                    Request::Insert { name, items }
                } else {
                    Request::Upsert { name, items }
                })
            }
            "DELETE" => {
                let [name] = args else {
                    return Err(ServerError::BadRequest(
                        "usage: DELETE <name> (with `id` data rows)".into(),
                    ));
                };
                validate_name(name)?;
                Ok(Request::Delete {
                    name: name.to_string(),
                    ids: parse_id_rows(body)?,
                })
            }
            "JOIN" => {
                let [outer, inner, rest @ ..] = args else {
                    return Err(ServerError::BadRequest(
                        "usage: JOIN <outer> <inner> [algo=..] [bounds=.. maxd=..]".into(),
                    ));
                };
                let opts = parse_options(rest)?;
                Ok(Request::Join {
                    outer: outer.to_string(),
                    inner: inner.to_string(),
                    algo: opts.algo,
                    bounds: ring_bounds(&opts)?,
                })
            }
            "SELFJOIN" => {
                let [dataset, rest @ ..] = args else {
                    return Err(ServerError::BadRequest(
                        "usage: SELFJOIN <dataset> [algo=..] [bounds=.. maxd=..]".into(),
                    ));
                };
                let opts = parse_options(rest)?;
                Ok(Request::SelfJoin {
                    dataset: dataset.to_string(),
                    algo: opts.algo,
                    bounds: ring_bounds(&opts)?,
                })
            }
            "TOPK" => {
                let [outer, inner, k] = args else {
                    return Err(ServerError::BadRequest(
                        "usage: TOPK <outer> <inner> <k>".into(),
                    ));
                };
                Ok(Request::TopK {
                    outer: outer.to_string(),
                    inner: inner.to_string(),
                    k: parse_num(k, "k")?,
                })
            }
            "EXPLAIN" => {
                let (names, rest): (Vec<&str>, Vec<&str>) =
                    args.iter().partition(|t| !t.contains('='));
                let (outer, inner) = match names.as_slice() {
                    [outer] => (outer.to_string(), None),
                    [outer, inner] => (outer.to_string(), Some(inner.to_string())),
                    _ => {
                        return Err(ServerError::BadRequest(
                            "usage: EXPLAIN <outer> [<inner>] [algo=..] [k=K]".into(),
                        ))
                    }
                };
                let opts = parse_options(&rest)?;
                Ok(Request::Explain {
                    outer,
                    inner,
                    algo: opts.algo,
                    k: opts.k,
                })
            }
            "STATS" => Ok(Request::Stats),
            "HELLO" => Ok(Request::Hello),
            "SHUTDOWN" => Ok(Request::Shutdown),
            other => Err(ServerError::BadRequest(format!(
                "unknown command {other:?}"
            ))),
        }
    }
}

/// Appends one wire row to `out`: the fields separated by single
/// spaces, then `\n`. Every row encoder writes through here, in place:
/// no per-row allocation, one row format for the whole grammar.
fn push_row(out: &mut String, fields: &[&dyn fmt::Display]) {
    for (i, field) in fields.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        write!(out, "{field}").expect("writing to a String cannot fail");
    }
    out.push('\n');
}

/// The non-blank rows of a body, trimmed: `lines()` drops a `\r`
/// before each `\n`, `trim()` any Unicode whitespace around a row.
fn rows(body: &str) -> impl Iterator<Item = &str> {
    body.lines().map(str::trim).filter(|line| !line.is_empty())
}

/// The `N` tokens of `tokens`, or `None` if there are more or fewer.
/// Every row parser reads its whitespace-separated fields through here,
/// with no per-row allocation.
fn exactly<'a, const N: usize>(mut tokens: impl Iterator<Item = &'a str>) -> Option<[&'a str; N]> {
    let mut fields = [""; N];
    for field in &mut fields {
        *field = tokens.next()?;
    }
    tokens.next().is_none().then_some(fields)
}

/// Parses every non-blank row of `body` as exactly `N` fields; `shape`
/// names the row in the error for a row of any other width.
fn parse_rows<const N: usize, T>(
    body: &str,
    shape: &str,
    parse: impl Fn([&str; N]) -> Result<T, ServerError>,
) -> Result<Vec<T>, ServerError> {
    rows(body)
        .map(|line| {
            parse(exactly(line.split_whitespace()).ok_or_else(|| {
                ServerError::BadRequest(format!("expected {shape}, got {line:?}"))
            })?)
        })
        .collect()
}

/// Appends `id x y` data rows (the body of `LOAD`, `INSERT`, `UPSERT`,
/// `SLOAD` and a WAL LOAD record).
pub(crate) fn encode_item_rows(out: &mut String, items: &[Item]) {
    for it in items {
        push_row(out, &[&it.id, &it.point.x, &it.point.y]);
    }
}

/// Parses `id x y` fields; `what` names each field in its error.
fn parse_item([id, x, y]: [&str; 3], what: [&str; 3]) -> Result<Item, ServerError> {
    Ok(Item::new(
        parse_num(id, what[0])?,
        pt(parse_num(x, what[1])?, parse_num(y, what[2])?),
    ))
}

const ITEM_FIELDS: [&str; 3] = ["item id", "x coordinate", "y coordinate"];

/// Parses `id x y` data rows (`LOAD`, `INSERT`, `UPSERT`, `SLOAD`, a
/// WAL LOAD record).
pub(crate) fn parse_item_rows(body: &str) -> Result<Vec<Item>, ServerError> {
    parse_rows(body, "`id x y` data row", |fields| {
        parse_item(fields, ITEM_FIELDS)
    })
}

/// Parses bare `id` data rows (used by `DELETE`).
fn parse_id_rows(body: &str) -> Result<Vec<u64>, ServerError> {
    rows(body).map(|line| parse_num(line, "item id")).collect()
}

/// Appends a mutation batch as body rows: `+ id x y` (insert), `- id`
/// (delete), `^ id x y` (upsert). `SUPDATE`, the WAL and the CLI's
/// mutation log share this grammar.
pub fn encode_mutation_rows(out: &mut String, ops: &[Mutation]) {
    for op in ops {
        match op {
            Mutation::Insert(it) => push_row(out, &[&'+', &it.id, &it.point.x, &it.point.y]),
            Mutation::Delete(id) => push_row(out, &[&'-', id]),
            Mutation::Upsert(it) => push_row(out, &[&'^', &it.id, &it.point.x, &it.point.y]),
        }
    }
}

/// Parses one mutation row (`+ id x y`, `- id` or `^ id x y`, already
/// trimmed and non-blank); [`encode_mutation_rows`] writes them.
pub fn parse_mutation_row(line: &str) -> Result<Mutation, ServerError> {
    let mut tokens = line.split_whitespace();
    match tokens.next() {
        Some("+") => exactly(tokens).map(|f| parse_item(f, ITEM_FIELDS).map(Mutation::Insert)),
        Some("^") => exactly(tokens).map(|f| parse_item(f, ITEM_FIELDS).map(Mutation::Upsert)),
        Some("-") => exactly(tokens).map(|[id]| parse_num(id, "item id").map(Mutation::Delete)),
        _ => None,
    }
    .unwrap_or_else(|| {
        Err(ServerError::BadRequest(format!(
            "expected `+ id x y`, `- id` or `^ id x y` mutation row, got {line:?}"
        )))
    })
}

/// Parses mutation rows (`SUPDATE`, a WAL UPDATE record) back into a
/// batch.
pub(crate) fn parse_mutation_rows(body: &str) -> Result<Vec<Mutation>, ServerError> {
    rows(body).map(parse_mutation_row).collect()
}

/// Appends result pairs as wire rows (`p_id p_x p_y q_id q_x q_y`, one
/// per line, shortest-round-trip floats). A reply appends them right
/// after its status line, so the rows are never copied into a payload.
pub fn push_pairs(out: &mut String, pairs: &[RcjPair]) {
    for pr in pairs {
        let (p, q) = (&pr.p, &pr.q);
        push_row(
            out,
            &[&p.id, &p.point.x, &p.point.y, &q.id, &q.point.x, &q.point.y],
        );
    }
}

/// [`push_pairs`] into a new string.
pub fn encode_pairs(pairs: &[RcjPair]) -> String {
    let mut out = String::new();
    push_pairs(&mut out, pairs);
    out
}

fn parse_pair([pid, px, py, qid, qx, qy]: [&str; 6]) -> Result<RcjPair, ServerError> {
    Ok(RcjPair::new(
        parse_item([pid, px, py], ["p id", "p x", "p y"])?,
        parse_item([qid, qx, qy], ["q id", "q x", "q y"])?,
    ))
}

/// Parses wire pair rows back into [`RcjPair`]s (bit-exact round trip).
pub fn parse_pairs(body: &str) -> Result<Vec<RcjPair>, ServerError> {
    parse_rows(body, "6-field pair row", parse_pair)
}

/// Encodes a rectangle as `x0,y0,x1,y1` (shortest-round-trip floats;
/// `inf`/`-inf` legal — partition cells reach to infinity, and
/// [`Rect::empty`] round-trips as `inf,inf,-inf,-inf`).
pub fn encode_rect(r: Rect) -> String {
    format!("{},{},{},{}", r.min.x, r.min.y, r.max.x, r.max.y)
}

/// Parses a [`encode_rect`] rectangle (bit-exact round trip).
pub fn parse_rect(s: &str) -> Result<Rect, ServerError> {
    let [x0, y0, x1, y1] = exactly(s.split(',')).ok_or_else(|| {
        ServerError::BadRequest(format!("rect needs exactly x0,y0,x1,y1, got {s:?}"))
    })?;
    let num = |v: &str| parse_num(v, "rect coordinate");
    // Construct the corners verbatim: `Rect::new` would normalize a
    // min > max pair, silently turning the empty rect (`inf,inf,-inf,
    // -inf`) into an everything-rect on the way in.
    Ok(Rect {
        min: pt(num(x0)?, num(y0)?),
        max: pt(num(x1)?, num(y1)?),
    })
}

/// Appends leaf-tagged result pairs as wire rows (`leaf p_id p_x p_y
/// q_id q_x q_y`): the shard-worker reply shape whose leading global
/// outer-leaf index is the coordinator's deterministic merge key.
pub fn push_tagged_pairs(out: &mut String, pairs: &[(usize, RcjPair)]) {
    for (leaf, pr) in pairs {
        let (p, q) = (&pr.p, &pr.q);
        push_row(
            out,
            &[
                leaf, &p.id, &p.point.x, &p.point.y, &q.id, &q.point.x, &q.point.y,
            ],
        );
    }
}

/// Parses [`push_tagged_pairs`] rows (bit-exact round trip).
pub fn parse_tagged_pairs(body: &str) -> Result<Vec<(usize, RcjPair)>, ServerError> {
    parse_rows(
        body,
        "7-field tagged pair row",
        |[leaf, pid, px, py, qid, qx, qy]| {
            Ok((
                parse_num(leaf, "leaf index")?,
                parse_pair([pid, px, py, qid, qx, qy])?,
            ))
        },
    )
}

/// The full [`RcjStats`] counter set as status-line fields — shard
/// replies must carry every counter so the coordinator's merged stats
/// stay byte-identical to a local run.
pub fn encode_stats_fields(stats: &RcjStats) -> [(&'static str, String); 5] {
    [
        ("candidates", stats.candidate_pairs.to_string()),
        ("result_pairs", stats.result_pairs.to_string()),
        ("heap_pops", stats.filter_heap_pops.to_string()),
        ("filter_node_reads", stats.filter_node_reads.to_string()),
        ("verify_node_visits", stats.verify_node_visits.to_string()),
    ]
}

/// Reads the [`encode_stats_fields`] counters back off a reply (fields
/// the peer did not send stay zero — version tolerance).
pub fn stats_from_reply(reply: &Reply) -> RcjStats {
    let f = |key: &str| -> u64 {
        reply
            .field(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or_default()
    };
    RcjStats {
        candidate_pairs: f("candidates"),
        result_pairs: f("result_pairs"),
        filter_heap_pops: f("heap_pops"),
        filter_node_reads: f("filter_node_reads"),
        verify_node_visits: f("verify_node_visits"),
    }
}

/// A parsed shard-worker request — the wire form of the messages a
/// coordinator sends its shard workers (see the module docs' worker
/// grammar table). Carried over the same frame format as [`Request`]
/// but parsed by worker processes only.
#[derive(Clone, Debug)]
pub enum ShardRequest {
    /// Role handshake; a worker answers `role=shard`.
    Hello,
    /// Register (or replay) a dataset replica with this worker's owned
    /// cell of the dataset's space partition. Re-loading a name this
    /// worker already holds replaces it — that is what makes the
    /// coordinator's replay log idempotent.
    Load {
        /// Dataset name (no whitespace).
        name: String,
        /// Index kind to build.
        kind: IndexKind,
        /// The half-open partition cell this worker owns for the
        /// dataset (decides outer-leaf ownership).
        cell: Rect,
        /// Disk-native serving: the shared page file (a path visible to
        /// the worker — loopback workers share the coordinator's
        /// filesystem). No whitespace (paths are tokens on the wire).
        spill: Option<String>,
        /// Whether this worker materializes the page file (exactly one
        /// writer per `LOAD`; replicas and replays attach).
        writer: bool,
        /// The full point set (the index is replicated; the cell
        /// partitions the *work*).
        items: Vec<Item>,
    },
    /// Apply a mutation batch carrying the epoch it must produce. The
    /// target epoch makes the message **idempotent**: a worker already
    /// at the target epoch answers without re-applying (the retry of a
    /// request whose reply was lost), while any other epoch mismatch is
    /// a hard refusal — the worker has diverged from the mutation log.
    Update {
        /// Dataset name.
        name: String,
        /// The epoch this batch advances the dataset to.
        target_epoch: u64,
        /// The mutations, in application order.
        ops: Vec<Mutation>,
    },
    /// Leaf-driven join over the worker's owned outer leaves; the reply
    /// carries leaf-tagged pairs plus full counters.
    Join {
        /// Outer dataset name.
        outer: String,
        /// Inner dataset (`None` = self-join).
        inner: Option<String>,
        /// Concrete algorithm (the coordinator resolves `Auto`).
        algo: RcjAlgorithm,
        /// Optional region-of-interest restriction.
        bounds: Option<RingBounds>,
    },
    /// Diameter-ordered top-k restricted to the worker's cell.
    TopK {
        /// Outer dataset name.
        outer: String,
        /// Inner dataset (`None` = self-join).
        inner: Option<String>,
        /// How many pairs.
        k: usize,
    },
    /// The plan this worker would run.
    Explain {
        /// Outer dataset name.
        outer: String,
        /// Inner dataset (`None` = self-join).
        inner: Option<String>,
        /// Algorithm (may be `Auto` for plan display).
        algo: RcjAlgorithm,
        /// Optional top-k bound.
        k: Option<usize>,
    },
    /// Stop the worker after acknowledging.
    Shutdown,
}

impl ShardRequest {
    /// Encodes the shard request as a frame payload.
    pub fn encode(&self) -> String {
        match self {
            ShardRequest::Hello => "HELLO".to_string(),
            ShardRequest::Load {
                name,
                kind,
                cell,
                spill,
                writer,
                items,
            } => {
                let mut out = format!(
                    "SLOAD {name} {} cell={}",
                    kind_name(*kind),
                    encode_rect(*cell)
                );
                if let Some(path) = spill {
                    out.push_str(&format!(" spill={path} writer={}", u8::from(*writer)));
                }
                out.push('\n');
                encode_item_rows(&mut out, items);
                out
            }
            ShardRequest::Update {
                name,
                target_epoch,
                ops,
            } => {
                let mut out = format!("SUPDATE {name} epoch={target_epoch}\n");
                encode_mutation_rows(&mut out, ops);
                out
            }
            ShardRequest::Join {
                outer,
                inner,
                algo,
                bounds,
            } => {
                let mut out = format!("SJOIN {outer}");
                if let Some(inner) = inner {
                    out.push_str(&format!(" inner={inner}"));
                }
                out.push_str(&format!(" algo={}", algo_name(*algo)));
                encode_bounds(&mut out, bounds);
                out
            }
            ShardRequest::TopK { outer, inner, k } => {
                let mut out = format!("STOPK {outer} {k}");
                if let Some(inner) = inner {
                    out.push_str(&format!(" inner={inner}"));
                }
                out
            }
            ShardRequest::Explain {
                outer,
                inner,
                algo,
                k,
            } => {
                let mut out = format!("SEXPLAIN {outer}");
                if let Some(inner) = inner {
                    out.push_str(&format!(" inner={inner}"));
                }
                out.push_str(&format!(" algo={}", algo_name(*algo)));
                if let Some(k) = k {
                    out.push_str(&format!(" k={k}"));
                }
                out
            }
            ShardRequest::Shutdown => "SHUTDOWN".to_string(),
        }
    }

    /// Parses a frame payload into a shard request.
    pub fn parse(payload: &str) -> Result<ShardRequest, ServerError> {
        let (line, body) = match payload.split_once('\n') {
            Some((line, body)) => (line, body),
            None => (payload, ""),
        };
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let Some((&cmd, args)) = tokens.split_first() else {
            return Err(ServerError::BadRequest("empty shard request".into()));
        };
        match cmd {
            "HELLO" => Ok(ShardRequest::Hello),
            "SHUTDOWN" => Ok(ShardRequest::Shutdown),
            "SLOAD" => {
                let [name, kind, rest @ ..] = args else {
                    return Err(ServerError::BadRequest(
                        "usage: SLOAD <name> <kind> cell=<rect> [spill=<path> writer=<0|1>]".into(),
                    ));
                };
                validate_name(name)?;
                let opts = parse_shard_options(rest)?;
                let cell = opts.cell.ok_or_else(|| {
                    ServerError::BadRequest("SLOAD requires a cell= rectangle".into())
                })?;
                Ok(ShardRequest::Load {
                    name: name.to_string(),
                    kind: parse_kind(kind)?,
                    cell,
                    spill: opts.spill,
                    writer: opts.writer,
                    items: parse_item_rows(body)?,
                })
            }
            "SUPDATE" => {
                let [name, rest @ ..] = args else {
                    return Err(ServerError::BadRequest(
                        "usage: SUPDATE <name> epoch=<n> (with mutation rows)".into(),
                    ));
                };
                validate_name(name)?;
                let opts = parse_shard_options(rest)?;
                let target_epoch = opts.epoch.ok_or_else(|| {
                    ServerError::BadRequest("SUPDATE requires an epoch= target".into())
                })?;
                Ok(ShardRequest::Update {
                    name: name.to_string(),
                    target_epoch,
                    ops: parse_mutation_rows(body)?,
                })
            }
            "SJOIN" => {
                let [outer, rest @ ..] = args else {
                    return Err(ServerError::BadRequest(
                        "usage: SJOIN <outer> [inner=<name>] [algo=..] [bounds=.. maxd=..]".into(),
                    ));
                };
                let opts = parse_shard_options(rest)?;
                let bounds = ring_bounds_shard(&opts)?;
                Ok(ShardRequest::Join {
                    outer: outer.to_string(),
                    inner: opts.inner,
                    algo: opts.algo,
                    bounds,
                })
            }
            "STOPK" => {
                let [outer, k, rest @ ..] = args else {
                    return Err(ServerError::BadRequest(
                        "usage: STOPK <outer> <k> [inner=<name>]".into(),
                    ));
                };
                let opts = parse_shard_options(rest)?;
                Ok(ShardRequest::TopK {
                    outer: outer.to_string(),
                    inner: opts.inner,
                    k: parse_num(k, "k")?,
                })
            }
            "SEXPLAIN" => {
                let [outer, rest @ ..] = args else {
                    return Err(ServerError::BadRequest(
                        "usage: SEXPLAIN <outer> [inner=<name>] [algo=..] [k=K]".into(),
                    ));
                };
                let opts = parse_shard_options(rest)?;
                Ok(ShardRequest::Explain {
                    outer: outer.to_string(),
                    inner: opts.inner,
                    algo: opts.algo,
                    k: opts.k,
                })
            }
            other => Err(ServerError::BadRequest(format!(
                "unknown shard command {other:?}"
            ))),
        }
    }
}

/// `key=value` options of the shard-worker grammar (a superset of the
/// client grammar's: `cell=`, `spill=`, `writer=`, `inner=`, `epoch=`
/// ride along with `algo=`/`bounds=`/`maxd=`/`k=`).
struct ShardOptions {
    algo: RcjAlgorithm,
    bounds: Option<Rect>,
    maxd: Option<f64>,
    k: Option<usize>,
    cell: Option<Rect>,
    spill: Option<String>,
    writer: bool,
    inner: Option<String>,
    epoch: Option<u64>,
}

fn parse_shard_options(tokens: &[&str]) -> Result<ShardOptions, ServerError> {
    let mut opts = ShardOptions {
        algo: RcjAlgorithm::Auto,
        bounds: None,
        maxd: None,
        k: None,
        cell: None,
        spill: None,
        writer: false,
        inner: None,
        epoch: None,
    };
    for t in tokens {
        let (key, value) = t.split_once('=').ok_or_else(|| {
            ServerError::BadRequest(format!("expected key=value option, got {t:?}"))
        })?;
        match key {
            "algo" => opts.algo = parse_algo(value)?,
            "maxd" => opts.maxd = Some(parse_num(value, "maxd")?),
            "k" => opts.k = Some(parse_num(value, "k")?),
            "bounds" => opts.bounds = Some(parse_rect(value)?),
            "cell" => opts.cell = Some(parse_rect(value)?),
            "spill" => opts.spill = Some(value.to_string()),
            "writer" => opts.writer = value == "1",
            "inner" => {
                validate_name(value)?;
                opts.inner = Some(value.to_string());
            }
            "epoch" => opts.epoch = Some(parse_num(value, "epoch")?),
            other => {
                return Err(ServerError::BadRequest(format!(
                    "unknown shard option {other:?}"
                )))
            }
        }
    }
    Ok(opts)
}

fn ring_bounds_shard(opts: &ShardOptions) -> Result<Option<RingBounds>, ServerError> {
    match (opts.bounds, opts.maxd) {
        (None, None) => Ok(None),
        (Some(bounds), Some(max_diameter)) => Ok(Some(RingBounds {
            bounds,
            max_diameter,
        })),
        _ => Err(ServerError::BadRequest(
            "bounds= and maxd= must be given together".into(),
        )),
    }
}

/// A parsed server response: the `OK` status-line fields plus the body.
/// (`ERR` responses surface as errors before a `Reply` is built.)
#[derive(Clone, Debug, Default)]
pub struct Reply {
    /// The echoed request id, when the request carried one.
    pub id: Option<u64>,
    /// `key=value` fields of the status line, in order.
    pub fields: Vec<(String, String)>,
    /// Everything after the status line.
    pub body: String,
}

impl Reply {
    /// Builds an `OK` payload from fields and a body.
    pub fn encode(fields: &[(&str, String)], body: &str) -> String {
        Self::encode_ok(None, fields, body)
    }

    /// Builds an `OK` payload, echoing the request id (if any) as the
    /// first status-line field.
    pub fn encode_ok(id: Option<u64>, fields: &[(&str, String)], body: &str) -> String {
        let mut out = String::from("OK");
        if let Some(id) = id {
            out.push_str(&format!(" id={id}"));
        }
        for (k, v) in fields {
            out.push_str(&format!(" {k}={v}"));
        }
        out.push('\n');
        out.push_str(body);
        out
    }

    /// Builds an `ERR` payload.
    pub fn encode_err(message: &str) -> String {
        Self::encode_err_id(None, message)
    }

    /// Builds an `ERR` payload, echoing the request id (if any) right
    /// after the status word so pipelining clients can still match the
    /// failure to its request.
    pub fn encode_err_id(id: Option<u64>, message: &str) -> String {
        // Keep the status machine-parsable: the message stays on one line.
        let msg = message.replace('\n', " ");
        match id {
            Some(id) => format!("ERR id={id} {msg}"),
            None => format!("ERR {msg}"),
        }
    }

    /// The backpressure rejection: `ERR [id=N] busy retry_after_ms=<ms>
    /// (<what>)`. Clients parse it back as [`ServerError::Busy`].
    pub fn encode_busy(id: Option<u64>, retry_after_ms: u64, what: &str) -> String {
        Self::encode_err_id(
            id,
            &format!("busy retry_after_ms={retry_after_ms} ({what})"),
        )
    }

    /// Parses a response payload; `ERR` payloads become
    /// [`ServerError::Remote`] (or [`ServerError::Busy`] for the
    /// backpressure rejection).
    pub fn parse(payload: &str) -> Result<Reply, ServerError> {
        Self::parse_with_id(payload).1
    }

    /// [`Reply::parse`], but the echoed request id survives even when
    /// the response is an error — a pipelining client needs it to match
    /// an `ERR` to the request that caused it.
    pub fn parse_with_id(payload: &str) -> (Option<u64>, Result<Reply, ServerError>) {
        let (line, body) = match payload.split_once('\n') {
            Some((line, body)) => (line, body),
            None => (payload, ""),
        };
        if let Some(msg) = line.strip_prefix("ERR") {
            let mut msg = msg.trim();
            let mut id = None;
            if let Some(rest) = msg.strip_prefix("id=") {
                let end = rest.find(char::is_whitespace).unwrap_or(rest.len());
                if let Ok(n) = rest[..end].parse::<u64>() {
                    id = Some(n);
                    msg = rest[end..].trim_start();
                }
            }
            let err = if let Some(rest) = msg.strip_prefix("busy") {
                let retry_after_ms = rest
                    .split_whitespace()
                    .find_map(|t| t.strip_prefix("retry_after_ms="))
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(0);
                ServerError::Busy { retry_after_ms }
            } else {
                ServerError::Remote(msg.to_string())
            };
            return (id, Err(err));
        }
        let Some(rest) = line.strip_prefix("OK") else {
            return (
                None,
                Err(ServerError::BadRequest(format!(
                    "malformed response status line {line:?}"
                ))),
            );
        };
        let fields: Vec<(String, String)> = match rest
            .split_whitespace()
            .map(|t| match t.split_once('=') {
                Some((k, v)) => Ok((k.to_string(), v.to_string())),
                None => Err(ServerError::BadRequest(format!(
                    "malformed response field {t:?}"
                ))),
            })
            .collect()
        {
            Ok(fields) => fields,
            Err(e) => return (None, Err(e)),
        };
        let id = fields
            .iter()
            .find(|(k, _)| k == "id")
            .and_then(|(_, v)| v.parse().ok());
        (
            id,
            Ok(Reply {
                id,
                fields,
                body: body.to_string(),
            }),
        )
    }

    /// Looks up a status-line field.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_and_reject_oversize() {
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, b"hello frame").unwrap();
        write_frame(&mut buf, "unicode ✓".as_bytes()).unwrap();
        let mut r = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), "hello frame");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), "unicode ✓");
        assert!(read_frame(&mut r).unwrap().is_none()); // clean EOF

        // A hostile length prefix is rejected before allocation.
        let huge = (MAX_FRAME + 1).to_be_bytes().to_vec();
        let mut r = std::io::Cursor::new(huge);
        assert!(read_frame(&mut r).is_err());
        // Truncated payloads error rather than hang or return garbage.
        let mut short: Vec<u8> = 10u32.to_be_bytes().to_vec();
        short.extend_from_slice(b"abc");
        assert!(read_frame(&mut std::io::Cursor::new(short)).is_err());
    }

    /// Regression (oversized-allocation bug): a length prefix promising
    /// MAX_FRAME with no payload behind it must fail after at most one
    /// read chunk of allocation — the receive buffer tracks bytes that
    /// actually arrive, not the untrusted prefix.
    #[test]
    fn hostile_length_prefix_does_not_preallocate() {
        struct CountingEof(usize);
        impl Read for CountingEof {
            fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
                self.0 += 1;
                Ok(0) // EOF right after the length prefix
            }
        }
        let prefix = MAX_FRAME.to_be_bytes();
        let mut r = std::io::Cursor::new(prefix.to_vec()).chain(CountingEof(0));
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);

        // Payloads larger than one read chunk still round-trip intact.
        let big = "x".repeat(READ_CHUNK * 3 + 17);
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, big.as_bytes()).unwrap();
        let got = read_frame(&mut std::io::Cursor::new(buf)).unwrap().unwrap();
        assert_eq!(got, big);
    }

    #[test]
    fn request_ids_split_and_round_trip() {
        assert_eq!(split_request_id("STATS").unwrap(), (None, "STATS"));
        assert_eq!(
            split_request_id(&encode_request_id(7, "STATS")).unwrap(),
            (Some(7), "STATS")
        );
        let (id, rest) = split_request_id("#42 LOAD d rtree\n1 2 3\n").unwrap();
        assert_eq!(id, Some(42));
        assert_eq!(rest, "LOAD d rtree\n1 2 3\n");
        assert!(split_request_id("#x STATS").is_err());
        assert!(split_request_id("# STATS").is_err());
        // A bare id with no command is a valid split, then a parse error.
        let (id, rest) = split_request_id("#9").unwrap();
        assert_eq!(id, Some(9));
        assert!(Request::parse(rest).is_err());
    }

    #[test]
    fn replies_echo_ids_on_ok_and_err() {
        let payload = Reply::encode_ok(Some(3), &[("pairs", "1".into())], "row\n");
        let (id, reply) = Reply::parse_with_id(&payload);
        let reply = reply.unwrap();
        assert_eq!(id, Some(3));
        assert_eq!(reply.id, Some(3));
        assert_eq!(reply.field("pairs"), Some("1"));

        let (id, err) = Reply::parse_with_id(&Reply::encode_err_id(Some(8), "nope"));
        assert_eq!(id, Some(8));
        assert!(matches!(err, Err(ServerError::Remote(m)) if m == "nope"));

        let (id, err) = Reply::parse_with_id(&Reply::encode_busy(Some(5), 75, "queue full"));
        assert_eq!(id, Some(5));
        assert!(matches!(err, Err(ServerError::Busy { retry_after_ms: 75 })));
        // Version tolerance: id-less replies keep parsing.
        let (id, reply) = Reply::parse_with_id(&Reply::encode(&[("x", "1".into())], ""));
        assert_eq!(id, None);
        assert!(reply.unwrap().id.is_none());
    }

    #[test]
    fn idle_reads_distinguish_quiet_peers_from_stalled_frames() {
        struct Timeouts<R>(R, Vec<bool>);
        impl<R: Read> Read for Timeouts<R> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.1.pop().unwrap_or(false) {
                    return Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "tick"));
                }
                self.0.read(buf)
            }
        }
        let mut framed: Vec<u8> = Vec::new();
        write_frame(&mut framed, b"STATS").unwrap();
        // Timeout before any byte: Idle; then the frame arrives whole.
        let mut r = Timeouts(std::io::Cursor::new(framed), vec![false, true]);
        assert!(matches!(read_frame_idle(&mut r).unwrap(), FrameRead::Idle));
        match read_frame_idle(&mut r).unwrap() {
            FrameRead::Frame(p) => assert_eq!(p, "STATS"),
            other => panic!("expected frame, got {other:?}"),
        }
        assert!(matches!(read_frame_idle(&mut r).unwrap(), FrameRead::Eof));
    }

    #[test]
    fn requests_round_trip_through_encode_parse() {
        let reqs = [
            Request::Load {
                name: "shops".into(),
                kind: IndexKind::Quadtree,
                items: vec![Item::new(7, pt(1.25, -3.5)), Item::new(9, pt(0.1, 2e-17))],
            },
            Request::Join {
                outer: "q".into(),
                inner: "p".into(),
                algo: RcjAlgorithm::Obj,
                bounds: None,
            },
            Request::SelfJoin {
                dataset: "d".into(),
                algo: RcjAlgorithm::Auto,
                bounds: Some(RingBounds {
                    bounds: Rect::new(pt(0.5, 1.5), pt(10.25, 20.75)),
                    max_diameter: 3.375,
                }),
            },
            Request::TopK {
                outer: "q".into(),
                inner: "p".into(),
                k: 12,
            },
            Request::Explain {
                outer: "q".into(),
                inner: Some("p".into()),
                algo: RcjAlgorithm::Inj,
                k: Some(4),
            },
            Request::Explain {
                outer: "d".into(),
                inner: None,
                algo: RcjAlgorithm::Auto,
                k: None,
            },
            Request::Stats,
            Request::Shutdown,
        ];
        for req in reqs {
            let parsed = Request::parse(&req.encode()).unwrap();
            // RingBounds has no PartialEq; compare the re-encoding,
            // which is injective over the request structure.
            assert_eq!(req.encode(), parsed.encode(), "{req:?}");
        }
    }

    #[test]
    fn malformed_requests_are_protocol_errors() {
        for bad in [
            "",
            "FROBNICATE x",
            "LOAD",
            "LOAD name btree",
            "LOAD bad name rtree",
            "JOIN onlyone",
            "JOIN q p algo=fastest",
            "JOIN q p bounds=1,2,3",
            "JOIN q p bounds=1,2,3,4", // maxd missing
            "JOIN q p maxd=5",         // bounds missing
            "TOPK q p notanumber",
            "EXPLAIN",
            "EXPLAIN a b c",
            "JOIN q p frobnicate=1",
        ] {
            assert!(Request::parse(bad).is_err(), "accepted {bad:?}");
        }
        assert!(Request::parse("LOAD d rtree\n1 2").is_err());
        assert!(Request::parse("LOAD d rtree\n1 x y").is_err());
    }

    #[test]
    fn pair_rows_round_trip_bit_exactly() {
        let pairs = vec![
            RcjPair::new(
                Item::new(1, pt(0.1 + 0.2, 1e300)),
                Item::new(2, pt(-0.0, 2.5e-308)),
            ),
            RcjPair::new(Item::new(3, pt(7.0, 8.0)), Item::new(4, pt(9.5, 10.25))),
        ];
        let parsed = parse_pairs(&encode_pairs(&pairs)).unwrap();
        assert_eq!(parsed, pairs);
        assert!(parse_pairs("1 2 3\n").is_err());
    }

    #[test]
    fn replies_parse_fields_and_errors() {
        let payload = Reply::encode(&[("pairs", "3".into()), ("shards", "2".into())], "a b\n");
        let reply = Reply::parse(&payload).unwrap();
        assert_eq!(reply.field("pairs"), Some("3"));
        assert_eq!(reply.field("shards"), Some("2"));
        assert_eq!(reply.field("missing"), None);
        assert_eq!(reply.body, "a b\n");

        let err = Reply::parse(&Reply::encode_err("it\nbroke")).unwrap_err();
        match err {
            ServerError::Remote(msg) => assert_eq!(msg, "it broke"),
            other => panic!("expected Remote, got {other:?}"),
        }
        assert!(Reply::parse("WAT 1").is_err());
        assert!(Reply::parse("OK pairs").is_err());
    }

    #[test]
    fn rects_round_trip_including_degenerate_and_empty() {
        for rect in [
            Rect::new(pt(-1.5, 2.25), pt(3.75, 1e300)),
            Rect::new(pt(0.1 + 0.2, -0.0), pt(0.1 + 0.2, -0.0)),
            Rect::empty(),
        ] {
            let wire = encode_rect(rect);
            let back = parse_rect(&wire).unwrap();
            assert_eq!(encode_rect(back), wire, "rect drifted through the wire");
        }
        assert!(parse_rect("1,2,3").is_err(), "three coordinates");
        assert!(parse_rect("1,2,3,x").is_err(), "non-numeric");
        assert!(parse_rect("1,2,3,4,5").is_err(), "five coordinates");
    }

    #[test]
    fn tagged_pair_rows_round_trip_with_their_leaf_indices() {
        let tagged = vec![
            (
                0usize,
                RcjPair::new(
                    Item::new(1, pt(0.1 + 0.2, 1e-300)),
                    Item::new(2, pt(-7.0, 8.5)),
                ),
            ),
            (
                41,
                RcjPair::new(Item::new(3, pt(1.0, 2.0)), Item::new(4, pt(3.0, 4.0))),
            ),
        ];
        let mut wire = String::new();
        push_tagged_pairs(&mut wire, &tagged);
        let parsed = parse_tagged_pairs(&wire).unwrap();
        assert_eq!(parsed, tagged);
        assert!(parse_tagged_pairs("1 2 3 4 5 6\n").is_err(), "untagged row");
        assert!(parse_tagged_pairs("x 1 2 3 4 5 6\n").is_err(), "bad leaf");
    }

    #[test]
    fn stats_fields_survive_a_reply_round_trip() {
        let stats = RcjStats {
            candidate_pairs: 10,
            result_pairs: 3,
            filter_heap_pops: 77,
            filter_node_reads: 5,
            verify_node_visits: 9,
        };
        let fields: Vec<(&str, String)> = encode_stats_fields(&stats).into_iter().collect();
        let reply = Reply::parse(&Reply::encode(&fields, "")).unwrap();
        assert_eq!(stats_from_reply(&reply), stats);
        // Absent fields default to zero rather than failing the reply.
        let bare = Reply::parse(&Reply::encode(&[("candidates", "4".into())], "")).unwrap();
        assert_eq!(stats_from_reply(&bare).candidate_pairs, 4);
        assert_eq!(stats_from_reply(&bare).result_pairs, 0);
    }

    #[test]
    fn shard_requests_round_trip_through_encode_parse() {
        let cell = Rect::new(pt(-10.0, -10.0), pt(0.5, 7.25));
        let reqs = vec![
            ShardRequest::Hello,
            ShardRequest::Shutdown,
            ShardRequest::Load {
                name: "pts".into(),
                kind: IndexKind::Quadtree,
                cell,
                spill: Some("/tmp/spill.pages".into()),
                writer: true,
                items: vec![Item::new(9, pt(1.5, -2.5))],
            },
            ShardRequest::Load {
                name: "q".into(),
                kind: IndexKind::Rtree,
                cell,
                spill: None,
                writer: false,
                items: Vec::new(),
            },
            ShardRequest::Join {
                outer: "a".into(),
                inner: Some("b".into()),
                algo: RcjAlgorithm::Bij,
                bounds: Some(RingBounds {
                    bounds: Rect::new(pt(0.0, 0.0), pt(50.0, 50.0)),
                    max_diameter: 4.0,
                }),
            },
            ShardRequest::Join {
                outer: "a".into(),
                inner: None,
                algo: RcjAlgorithm::Auto,
                bounds: None,
            },
            ShardRequest::TopK {
                outer: "a".into(),
                inner: Some("b".into()),
                k: 12,
            },
            ShardRequest::Explain {
                outer: "a".into(),
                inner: None,
                algo: RcjAlgorithm::Inj,
                k: Some(3),
            },
        ];
        for req in reqs {
            let wire = req.encode();
            let back = ShardRequest::parse(&wire).unwrap();
            assert_eq!(back.encode(), wire, "shard request drifted: {wire:?}");
        }
        assert!(ShardRequest::parse("SLOAD x rtree").is_err(), "no cell");
        assert!(ShardRequest::parse("SJOIN").is_err(), "no outer");
        assert!(ShardRequest::parse("STOPK a notanum").is_err());
    }

    #[test]
    fn update_requests_round_trip_through_encode_parse() {
        let reqs = [
            Request::Insert {
                name: "pts".into(),
                items: vec![
                    Item::new(7, pt(0.1 + 0.2, -3.5)),
                    Item::new(9, pt(1e-300, 2.0)),
                ],
            },
            Request::Delete {
                name: "pts".into(),
                ids: vec![7, 9, u64::MAX],
            },
            Request::Upsert {
                name: "pts".into(),
                items: vec![Item::new(7, pt(4.25, 5.5))],
            },
        ];
        for req in reqs {
            let parsed = Request::parse(&req.encode()).unwrap();
            assert_eq!(req.encode(), parsed.encode(), "{req:?}");
        }
        assert!(Request::parse("INSERT").is_err(), "no name");
        assert!(Request::parse("DELETE d\n1 2 3").is_err(), "id x y row");
        assert!(Request::parse("UPSERT d\n1 2").is_err(), "short row");
    }

    #[test]
    fn shard_update_round_trips_mixed_mutation_rows() {
        let req = ShardRequest::Update {
            name: "pts".into(),
            target_epoch: 3,
            ops: vec![
                Mutation::Insert(Item::new(1, pt(0.1 + 0.2, -0.0))),
                Mutation::Delete(2),
                Mutation::Upsert(Item::new(3, pt(1e300, 2.5e-308))),
            ],
        };
        let wire = req.encode();
        let back = ShardRequest::parse(&wire).unwrap();
        assert_eq!(back.encode(), wire, "SUPDATE drifted: {wire:?}");
        let ShardRequest::Update {
            target_epoch, ops, ..
        } = back
        else {
            panic!("parsed to a different verb");
        };
        assert_eq!(target_epoch, 3);
        assert_eq!(ops.len(), 3);
        assert!(
            ShardRequest::parse("SUPDATE pts\n+ 1 2 3").is_err(),
            "epoch= is mandatory"
        );
        assert!(
            ShardRequest::parse("SUPDATE pts epoch=1\n* 1 2 3").is_err(),
            "unknown mutation marker"
        );
    }
}
