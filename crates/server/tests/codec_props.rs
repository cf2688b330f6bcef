//! Property tests of the wire row codecs: pair rows, leaf-tagged pair
//! rows, `id x y` item rows, bare `id` rows and mutation rows.
//!
//! - Every encoder round-trips through its parser bit-exactly over
//!   arbitrary finite `f64` (`-0.0`, subnormals and `±1e300` included)
//!   and ids up to `u64::MAX`.
//! - Every parser is total: arbitrary text yields `Ok` or `Err`, never
//!   a panic.
//! - The encoders write the bytes of the per-row `format!` encoders they
//!   replaced, and the parsers accept and reject what the
//!   `split_whitespace().collect::<Vec<_>>()` parsers they replaced did,
//!   with the same values and the same error messages. Both old
//!   versions are copied below as the reference.

use proptest::prelude::*;
use ringjoin_core::{IndexKind, RcjPair};
use ringjoin_geom::{pt, Item};
use ringjoin_server::proto::{
    encode_pairs, parse_pairs, parse_tagged_pairs, push_tagged_pairs, Request, ShardRequest,
};
use ringjoin_server::{Mutation, ServerError};

// ---------------------------------------------------------------------
// The replaced codecs, verbatim apart from their names.
// ---------------------------------------------------------------------

fn old_parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, ServerError> {
    s.parse()
        .map_err(|_| ServerError::BadRequest(format!("invalid {what}: {s:?}")))
}

fn old_encode_pairs(pairs: &[RcjPair]) -> String {
    let mut out = String::new();
    for pr in pairs {
        out.push_str(&format!(
            "{} {} {} {} {} {}\n",
            pr.p.id, pr.p.point.x, pr.p.point.y, pr.q.id, pr.q.point.x, pr.q.point.y
        ));
    }
    out
}

fn old_parse_pairs(body: &str) -> Result<Vec<RcjPair>, ServerError> {
    let mut pairs = Vec::new();
    for line in body.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [pid, px, py, qid, qx, qy] = fields.as_slice() else {
            return Err(ServerError::BadRequest(format!(
                "expected 6-field pair row, got {line:?}"
            )));
        };
        pairs.push(RcjPair::new(
            Item::new(
                old_parse_num(pid, "p id")?,
                pt(old_parse_num(px, "p x")?, old_parse_num(py, "p y")?),
            ),
            Item::new(
                old_parse_num(qid, "q id")?,
                pt(old_parse_num(qx, "q x")?, old_parse_num(qy, "q y")?),
            ),
        ));
    }
    Ok(pairs)
}

fn old_encode_tagged_pairs(pairs: &[(usize, RcjPair)]) -> String {
    let mut out = String::new();
    for (leaf, pr) in pairs {
        out.push_str(&format!(
            "{} {} {} {} {} {} {}\n",
            leaf, pr.p.id, pr.p.point.x, pr.p.point.y, pr.q.id, pr.q.point.x, pr.q.point.y
        ));
    }
    out
}

fn old_parse_tagged_pairs(body: &str) -> Result<Vec<(usize, RcjPair)>, ServerError> {
    let mut pairs = Vec::new();
    for line in body.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [leaf, pid, px, py, qid, qx, qy] = fields.as_slice() else {
            return Err(ServerError::BadRequest(format!(
                "expected 7-field tagged pair row, got {line:?}"
            )));
        };
        pairs.push((
            old_parse_num(leaf, "leaf index")?,
            RcjPair::new(
                Item::new(
                    old_parse_num(pid, "p id")?,
                    pt(old_parse_num(px, "p x")?, old_parse_num(py, "p y")?),
                ),
                Item::new(
                    old_parse_num(qid, "q id")?,
                    pt(old_parse_num(qx, "q x")?, old_parse_num(qy, "q y")?),
                ),
            ),
        ));
    }
    Ok(pairs)
}

/// The old `LOAD` request encoder (item rows behind a command line).
fn old_encode_load(name: &str, items: &[Item]) -> String {
    let mut out = format!("LOAD {name} rtree\n");
    for it in items {
        out.push_str(&format!("{} {} {}\n", it.id, it.point.x, it.point.y));
    }
    out
}

fn old_encode_delete(name: &str, ids: &[u64]) -> String {
    let mut out = format!("DELETE {name}\n");
    for id in ids {
        out.push_str(&format!("{id}\n"));
    }
    out
}

fn old_parse_item_rows(body: &str) -> Result<Vec<Item>, ServerError> {
    let mut items = Vec::new();
    for line in body.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [id, x, y] = fields.as_slice() else {
            return Err(ServerError::BadRequest(format!(
                "expected `id x y` data row, got {line:?}"
            )));
        };
        items.push(Item::new(
            old_parse_num(id, "item id")?,
            pt(
                old_parse_num(x, "x coordinate")?,
                old_parse_num(y, "y coordinate")?,
            ),
        ));
    }
    Ok(items)
}

fn old_parse_id_rows(body: &str) -> Result<Vec<u64>, ServerError> {
    body.lines()
        .map(str::trim)
        .filter(|line| !line.is_empty())
        .map(|line| old_parse_num(line, "item id"))
        .collect()
}

/// The old `SUPDATE` request encoder (mutation rows behind a command
/// line).
fn old_encode_update(name: &str, target_epoch: u64, ops: &[Mutation]) -> String {
    let mut out = format!("SUPDATE {name} epoch={target_epoch}\n");
    for op in ops {
        match op {
            Mutation::Insert(it) => {
                out.push_str(&format!("+ {} {} {}\n", it.id, it.point.x, it.point.y));
            }
            Mutation::Delete(id) => out.push_str(&format!("- {id}\n")),
            Mutation::Upsert(it) => {
                out.push_str(&format!("^ {} {} {}\n", it.id, it.point.x, it.point.y));
            }
        }
    }
    out
}

fn old_parse_mutation_rows(body: &str) -> Result<Vec<Mutation>, ServerError> {
    let mut ops = Vec::new();
    for line in body.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let op = match fields.as_slice() {
            ["+", id, x, y] | ["^", id, x, y] => {
                let item = Item::new(
                    old_parse_num(id, "item id")?,
                    pt(
                        old_parse_num(x, "x coordinate")?,
                        old_parse_num(y, "y coordinate")?,
                    ),
                );
                if fields[0] == "+" {
                    Mutation::Insert(item)
                } else {
                    Mutation::Upsert(item)
                }
            }
            ["-", id] => Mutation::Delete(old_parse_num(id, "item id")?),
            _ => {
                return Err(ServerError::BadRequest(format!(
                    "expected `+ id x y`, `- id` or `^ id x y` mutation row, got {line:?}"
                )))
            }
        };
        ops.push(op);
    }
    Ok(ops)
}

// ---------------------------------------------------------------------
// The new parsers, reached through their public entry points.
// ---------------------------------------------------------------------

fn new_parse_item_rows(body: &str) -> Result<Vec<Item>, ServerError> {
    match Request::parse(&format!("LOAD d rtree\n{body}"))? {
        Request::Load { items, .. } => Ok(items),
        other => panic!("LOAD parsed as {other:?}"),
    }
}

fn new_parse_id_rows(body: &str) -> Result<Vec<u64>, ServerError> {
    match Request::parse(&format!("DELETE d\n{body}"))? {
        Request::Delete { ids, .. } => Ok(ids),
        other => panic!("DELETE parsed as {other:?}"),
    }
}

fn new_parse_mutation_rows(body: &str) -> Result<Vec<Mutation>, ServerError> {
    match ShardRequest::parse(&format!("SUPDATE d epoch=1\n{body}"))? {
        ShardRequest::Update { ops, .. } => Ok(ops),
        other => panic!("SUPDATE parsed as {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------

/// Finite `f64`s: arbitrary bit patterns (non-finite ones folded onto a
/// finite exponent), subnormals, signed zeros and the extremes.
fn finite_f64() -> BoxedStrategy<f64> {
    prop_oneof![
        6 => any::<u64>().prop_map(|bits| {
            let v = f64::from_bits(bits);
            if v.is_finite() {
                v
            } else {
                f64::from_bits(bits ^ (1 << 62))
            }
        }),
        2 => any::<u64>().prop_map(|bits| f64::from_bits(bits & 0x800f_ffff_ffff_ffff)),
        2 => -1.0e6..1.0e6f64,
        1 => Just(-0.0f64),
        1 => Just(0.0f64),
        1 => Just(1e300f64),
        1 => Just(-1e300f64),
        1 => Just(f64::MAX),
        1 => Just(f64::MIN_POSITIVE),
    ]
    .boxed()
}

fn id() -> BoxedStrategy<u64> {
    prop_oneof![
        3 => any::<u64>(),
        2 => 0u64..100_000,
        1 => Just(u64::MAX),
        1 => Just(0u64),
    ]
    .boxed()
}

fn item() -> impl Strategy<Value = Item> {
    (id(), finite_f64(), finite_f64()).prop_map(|(id, x, y)| Item::new(id, pt(x, y)))
}

fn pair() -> impl Strategy<Value = RcjPair> {
    (item(), item()).prop_map(|(p, q)| RcjPair::new(p, q))
}

fn mutation() -> BoxedStrategy<Mutation> {
    prop_oneof![
        item().prop_map(Mutation::Insert),
        id().prop_map(Mutation::Delete),
        item().prop_map(Mutation::Upsert),
    ]
    .boxed()
}

/// Text that is mostly near-valid rows: numbers, row markers and the
/// edge kinds of whitespace (vertical tab, `\r`, no-break and em
/// spaces, NEL), plus stray bytes.
fn soup() -> impl Strategy<Value = String> {
    let token = prop_oneof![
        6 => (0u64..1000).prop_map(|n| n.to_string()),
        3 => finite_f64().prop_map(|v| v.to_string()),
        1 => id().prop_map(|v| v.to_string()),
        6 => Just(" ".to_string()),
        4 => Just("\n".to_string()),
        1 => Just("\t".to_string()),
        1 => Just("\r\n".to_string()),
        1 => Just("\r".to_string()),
        1 => Just("\x0B".to_string()),
        1 => Just("\x0C".to_string()),
        1 => Just("\u{a0}".to_string()),
        1 => Just("\u{2003}".to_string()),
        1 => Just("\u{85}".to_string()),
        1 => Just("+".to_string()),
        1 => Just("-".to_string()),
        1 => Just("^".to_string()),
        1 => Just("inf".to_string()),
        1 => Just("NaN".to_string()),
        1 => Just("1e".to_string()),
        1 => Just("é".to_string()),
        1 => any::<u8>().prop_map(|b| String::from_utf8_lossy(&[b]).into_owned()),
    ];
    collection::vec(token, 0..40).prop_map(|tokens| tokens.concat())
}

/// A run of whitespace of the kinds `split_whitespace` splits on.
fn whitespace() -> impl Strategy<Value = String> {
    let one = prop_oneof![
        6 => Just(" "),
        1 => Just("\t"),
        1 => Just("\x0B"),
        1 => Just("\x0C"),
        1 => Just("\u{a0}"),
        1 => Just("\u{2003}"),
        1 => Just("\u{3000}"),
    ];
    collection::vec(one, 1..3).prop_map(|runs| runs.concat())
}

/// Re-spaces valid rows: every single-space separator becomes a
/// whitespace run, rows get leading and trailing runs, and some rows
/// end in `\r\n` or are followed by a blank line.
fn respace(body: &str, runs: &[String]) -> String {
    let mut run = runs.iter().cycle();
    let mut out = String::new();
    for (i, line) in body.lines().enumerate() {
        out.push_str(run.next().unwrap());
        for (j, field) in line.split(' ').enumerate() {
            if j > 0 {
                out.push_str(run.next().unwrap());
            }
            out.push_str(field);
        }
        out.push_str(run.next().unwrap());
        out.push_str(["\n", "\r\n", "\n\n", "\n \n"][i % 4]);
    }
    out
}

/// Arbitrary bytes, read the way a peer's frame would be.
fn bytes() -> impl Strategy<Value = String> {
    collection::vec(any::<u8>(), 0..200)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

// ---------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------

fn item_bits(it: &Item) -> (u64, u64, u64) {
    (it.id, it.point.x.to_bits(), it.point.y.to_bits())
}

fn pair_bits(pr: &RcjPair) -> [(u64, u64, u64); 2] {
    [item_bits(&pr.p), item_bits(&pr.q)]
}

fn mutation_bits(op: &Mutation) -> (u8, (u64, u64, u64)) {
    match op {
        Mutation::Insert(it) => (b'+', item_bits(it)),
        Mutation::Delete(id) => (b'-', (*id, 0, 0)),
        Mutation::Upsert(it) => (b'^', item_bits(it)),
    }
}

/// Old and new parser outcomes agree: both `Ok` with the same values
/// (compared as `Debug`, which prints `-0.0` and `NaN` distinctly), or
/// both `Err` with the same message.
fn same<T: std::fmt::Debug>(old: &Result<T, ServerError>, new: &Result<T, ServerError>) -> bool {
    format!("{old:?}") == format!("{new:?}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn pair_rows_round_trip_bit_exactly(pairs in collection::vec(pair(), 0..40)) {
        let wire = encode_pairs(&pairs);
        prop_assert_eq!(&wire, &old_encode_pairs(&pairs));
        let back = parse_pairs(&wire).expect("encoded pair rows parse");
        prop_assert_eq!(
            back.iter().map(pair_bits).collect::<Vec<_>>(),
            pairs.iter().map(pair_bits).collect::<Vec<_>>()
        );
    }

    #[test]
    fn tagged_pair_rows_round_trip_bit_exactly(
        tagged in collection::vec((any::<usize>(), pair()), 0..40)
    ) {
        let mut wire = String::new();
        push_tagged_pairs(&mut wire, &tagged);
        prop_assert_eq!(&wire, &old_encode_tagged_pairs(&tagged));
        let back = parse_tagged_pairs(&wire).expect("encoded tagged rows parse");
        prop_assert_eq!(
            back.iter().map(|(l, pr)| (*l, pair_bits(pr))).collect::<Vec<_>>(),
            tagged.iter().map(|(l, pr)| (*l, pair_bits(pr))).collect::<Vec<_>>()
        );
    }

    #[test]
    fn item_rows_round_trip_bit_exactly(items in collection::vec(item(), 0..40)) {
        let req = Request::Load { name: "d".into(), kind: IndexKind::Rtree, items: items.clone() };
        let wire = req.encode();
        prop_assert_eq!(&wire, &old_encode_load("d", &items));
        for wire in [
            wire,
            Request::Insert { name: "d".into(), items: items.clone() }.encode(),
            Request::Upsert { name: "d".into(), items: items.clone() }.encode(),
        ] {
            let back = match Request::parse(&wire).expect("encoded item rows parse") {
                Request::Load { items, .. }
                | Request::Insert { items, .. }
                | Request::Upsert { items, .. } => items,
                other => panic!("{wire:?} parsed as {other:?}"),
            };
            prop_assert_eq!(
                back.iter().map(item_bits).collect::<Vec<_>>(),
                items.iter().map(item_bits).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn id_rows_round_trip(ids in collection::vec(id(), 0..40)) {
        let wire = Request::Delete { name: "d".into(), ids: ids.clone() }.encode();
        prop_assert_eq!(&wire, &old_encode_delete("d", &ids));
        let Request::Delete { ids: back, .. } = Request::parse(&wire).expect("id rows parse") else {
            panic!("DELETE parsed as another verb");
        };
        prop_assert_eq!(back, ids);
    }

    #[test]
    fn mutation_rows_round_trip_bit_exactly(
        ops in collection::vec(mutation(), 0..40),
        epoch in any::<u64>()
    ) {
        let req = ShardRequest::Update { name: "d".into(), target_epoch: epoch, ops: ops.clone() };
        let wire = req.encode();
        prop_assert_eq!(&wire, &old_encode_update("d", epoch, &ops));
        let ShardRequest::Update { ops: back, target_epoch, .. } =
            ShardRequest::parse(&wire).expect("mutation rows parse")
        else {
            panic!("SUPDATE parsed as another verb");
        };
        prop_assert_eq!(target_epoch, epoch);
        prop_assert_eq!(
            back.iter().map(mutation_bits).collect::<Vec<_>>(),
            ops.iter().map(mutation_bits).collect::<Vec<_>>()
        );
    }

    /// Near-valid text: the new parsers accept, reject and report
    /// exactly what the old ones did.
    #[test]
    fn parsers_agree_with_the_old_ones_on_row_soup(body in soup()) {
        prop_assert!(same(&old_parse_pairs(&body), &parse_pairs(&body)), "pairs {body:?}");
        prop_assert!(
            same(&old_parse_tagged_pairs(&body), &parse_tagged_pairs(&body)),
            "tagged {body:?}"
        );
        prop_assert!(same(&old_parse_item_rows(&body), &new_parse_item_rows(&body)), "items {body:?}");
        prop_assert!(same(&old_parse_id_rows(&body), &new_parse_id_rows(&body)), "ids {body:?}");
        prop_assert!(
            same(&old_parse_mutation_rows(&body), &new_parse_mutation_rows(&body)),
            "mutations {body:?}"
        );
    }

    /// Valid rows spaced every way `split_whitespace` allows: accepted
    /// by old and new parsers alike, with the same values.
    #[test]
    fn parsers_agree_on_respaced_valid_rows(
        pairs in collection::vec(pair(), 1..8),
        ops in collection::vec(mutation(), 1..8),
        runs in collection::vec(whitespace(), 1..6)
    ) {
        let body = respace(&old_encode_pairs(&pairs), &runs);
        let new = parse_pairs(&body);
        prop_assert!(new.is_ok(), "rejected {body:?}: {new:?}");
        prop_assert!(same(&old_parse_pairs(&body), &new), "pairs {body:?}");

        let tagged: Vec<(usize, RcjPair)> = pairs.iter().copied().enumerate().collect();
        let body = respace(&old_encode_tagged_pairs(&tagged), &runs);
        let new = parse_tagged_pairs(&body);
        prop_assert!(new.is_ok(), "rejected {body:?}: {new:?}");
        prop_assert!(same(&old_parse_tagged_pairs(&body), &new), "tagged {body:?}");

        let items: Vec<Item> = pairs.iter().map(|pr| pr.p).collect();
        let load = old_encode_load("d", &items);
        let body = respace(load.split_once('\n').unwrap().1, &runs);
        let new = new_parse_item_rows(&body);
        prop_assert!(new.is_ok(), "rejected {body:?}: {new:?}");
        prop_assert!(same(&old_parse_item_rows(&body), &new), "items {body:?}");

        let update = old_encode_update("d", 1, &ops);
        let body = respace(update.split_once('\n').unwrap().1, &runs);
        let new = new_parse_mutation_rows(&body);
        prop_assert!(new.is_ok(), "rejected {body:?}: {new:?}");
        prop_assert!(same(&old_parse_mutation_rows(&body), &new), "mutations {body:?}");
    }

    /// Arbitrary bytes: every row parser returns instead of panicking,
    /// and still agrees with the old one.
    #[test]
    fn parsers_are_total_on_arbitrary_bytes(body in bytes()) {
        prop_assert!(same(&old_parse_pairs(&body), &parse_pairs(&body)));
        prop_assert!(same(&old_parse_tagged_pairs(&body), &parse_tagged_pairs(&body)));
        prop_assert!(same(&old_parse_item_rows(&body), &new_parse_item_rows(&body)));
        prop_assert!(same(&old_parse_id_rows(&body), &new_parse_id_rows(&body)));
        prop_assert!(same(&old_parse_mutation_rows(&body), &new_parse_mutation_rows(&body)));
    }
}

/// Rows that only differ in whitespace: vertical tab and form feed
/// separate fields, a no-break space does too (it is Unicode
/// whitespace), and `\r\n` line ends are accepted, as before.
#[test]
fn whitespace_edge_cases_match_split_whitespace() {
    for body in [
        "1\x0B2\x0C3 4 5 6\n",
        "1\u{a0}2 3 4 5 6\n",
        "1 2 3 4 5 6\r\n\r\n",
        "\u{2003}1 2 3 4 5 6\u{85}\n",
        "1 2 3 4 5 6 7\n",
        "1 2 3 4 5\n",
        "1 2 3 4 5 é\n",
    ] {
        assert!(same(&old_parse_pairs(body), &parse_pairs(body)), "{body:?}");
    }
    assert!(parse_pairs("1\x0B2\x0C3 4 5 6\n").is_ok());
    assert!(parse_pairs("1\u{a0}2 3 4 5 6\n").is_ok());
}
