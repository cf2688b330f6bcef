//! The CLI's CSV output path, byte for byte: the built `ringjoin`
//! binary must write the same bytes to `--out FILE` and to stdout, at
//! one thread and at two, and those bytes must equal a CSV formatted
//! in process from `Plan::collect` with the row format the CLI has
//! always used — for `join`, `self-join` and `top-k`.

use ringjoin_core::{Engine, IndexKind, QueryBuilder, RcjAlgorithm, RcjPair};
use ringjoin_datagen::{gaussian_clusters, io as dio, uniform};
use std::path::{Path, PathBuf};
use std::process::Command;

/// The CSV as the CLI wrote it before its output was buffered: header,
/// then one `writeln!` of this format per pair.
fn reference_csv(pairs: &[RcjPair]) -> Vec<u8> {
    let mut csv = String::from("p_id,q_id,center_x,center_y,radius\n");
    for pr in pairs {
        let c = pr.center();
        csv.push_str(&format!(
            "{},{},{},{},{}\n",
            pr.p.id,
            pr.q.id,
            c.x,
            c.y,
            pr.radius()
        ));
    }
    csv.into_bytes()
}

fn ringjoin(args: &[&str]) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_ringjoin"))
        .args(args)
        .env_remove("RINGJOIN_THREADS")
        .output()
        .expect("spawn ringjoin");
    assert!(
        out.status.success(),
        "ringjoin {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

/// Runs `args` four ways (file and stdout, 1 and 2 threads) and checks
/// that every output equals `expected`.
fn assert_cli_bytes(dir: &Path, name: &str, args: &[&str], expected: &[u8]) {
    for threads in ["1", "2"] {
        let file = dir.join(format!("{name}-{threads}t.csv"));
        let file = file.to_str().expect("utf-8 temp path");
        let mut with_file = args.to_vec();
        with_file.extend(["--threads", threads, "--out", file]);
        assert!(ringjoin(&with_file).is_empty(), "{name}: stdout not empty");
        let written = std::fs::read(file).expect("read --out file");
        assert!(
            written == expected,
            "{name} --threads {threads} --out: CSV differs from the in-process rows"
        );

        let mut to_stdout = args.to_vec();
        to_stdout.extend(["--threads", threads]);
        assert!(
            ringjoin(&to_stdout) == expected,
            "{name} --threads {threads} to stdout: CSV differs from the in-process rows"
        );
    }
}

fn save(dir: &Path, name: &str, items: &[ringjoin_geom::Item]) -> PathBuf {
    let path = dir.join(name);
    dio::save_bin(&path, items).expect("write dataset");
    path
}

fn collect(query: QueryBuilder<'_>) -> Vec<RcjPair> {
    query.collect().expect("plan").pairs
}

#[test]
fn cli_csv_is_byte_identical_across_sinks_threads_and_in_process_rows() {
    let dir = ringjoin_testsupport::scratch_dir("cli-output-bytes");
    let p_items = uniform(1500, 11);
    let q_items = gaussian_clusters(1500, 6, 800.0, 12);
    let p = save(&dir, "p.bin", &p_items);
    let q = save(&dir, "q.bin", &q_items);
    let (p, q) = (p.to_str().unwrap(), q.to_str().unwrap());

    let mut engine = Engine::new();
    engine.load("p", p_items).index(IndexKind::Rtree);
    engine.load("q", q_items).index(IndexKind::Rtree);

    let join = collect(engine.query().join("q", "p").algorithm(RcjAlgorithm::Obj));
    assert!(join.len() > 1000, "join found only {} pairs", join.len());
    assert_cli_bytes(
        &dir,
        "join",
        &["join", "--p", p, "--q", q],
        &reference_csv(&join),
    );

    let top = collect(engine.query().join("q", "p").top_k(37));
    assert_eq!(top.len(), 37);
    assert_cli_bytes(
        &dir,
        "top-k",
        &["top-k", "--p", p, "--q", q, "--k", "37"],
        &reference_csv(&top),
    );

    let selfj = collect(engine.query().self_join("p").algorithm(RcjAlgorithm::Obj));
    assert!(!selfj.is_empty());
    assert_cli_bytes(
        &dir,
        "self-join",
        &["self-join", "--input", p],
        &reference_csv(&selfj),
    );
}
