//! Smoke tests for the `parcc` CLI binary: generate a graph, run the
//! subcommands end to end, and check the reported components against the
//! in-process `traverse::components` oracle.

use parcc::graph::io::read_edge_list;
use parcc::graph::traverse::components;
use std::collections::HashSet;
use std::process::{Command, Stdio};

fn parcc_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_parcc"))
}

/// `parcc gen` output parsed back must be a well-formed graph, and `parcc
/// labels` on it must report exactly the oracle's component count.
#[test]
fn labels_agree_with_oracle_on_generated_graph() {
    let gen = parcc_bin()
        .args(["gen", "gnp", "300", "5"])
        .output()
        .expect("run parcc gen");
    assert!(gen.status.success(), "gen failed: {gen:?}");
    let g = read_edge_list(std::io::Cursor::new(&gen.stdout[..])).expect("parse generated graph");
    let oracle_components: HashSet<u32> = components(&g).into_iter().collect();

    let tmp = std::env::temp_dir().join(format!("parcc-cli-smoke-{}.txt", std::process::id()));
    std::fs::write(&tmp, &gen.stdout).unwrap();
    let labels = parcc_bin()
        .arg("labels")
        .arg(&tmp)
        .output()
        .expect("run parcc labels");
    let _ = std::fs::remove_file(&tmp);
    assert!(labels.status.success(), "labels failed: {labels:?}");

    let text = String::from_utf8(labels.stdout).unwrap();
    let mut reported = HashSet::new();
    let mut rows = 0usize;
    for line in text.lines() {
        let mut it = line.split_whitespace();
        let v: u32 = it.next().unwrap().parse().unwrap();
        let l: u32 = it.next().unwrap().parse().unwrap();
        assert_eq!(v as usize, rows, "vertex rows must be in order");
        reported.insert(l);
        rows += 1;
    }
    assert_eq!(rows, g.n(), "one label row per vertex");
    assert_eq!(
        reported.len(),
        oracle_components.len(),
        "CLI component count must match traverse::components"
    );
}

/// `parcc stats -` on stdin must report the oracle's component count.
#[test]
fn stats_reports_oracle_component_count() {
    let gen = parcc_bin()
        .args(["gen", "cycle", "64"])
        .output()
        .expect("run parcc gen");
    assert!(gen.status.success());
    let g = read_edge_list(std::io::Cursor::new(&gen.stdout[..])).unwrap();
    let truth: HashSet<u32> = components(&g).into_iter().collect();

    let mut child = parcc_bin()
        .args(["stats", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn parcc stats");
    std::io::Write::write_all(child.stdin.as_mut().unwrap(), &gen.stdout).unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "stats failed: {out:?}");

    let text = String::from_utf8(out.stdout).unwrap();
    let reported: usize = text
        .lines()
        .find_map(|l| l.strip_prefix("components:"))
        .expect("stats must print a components line")
        .trim()
        .parse()
        .expect("component count must be a number");
    assert_eq!(reported, truth.len());
}

/// Bad invocations exit nonzero: no args, unknown subcommand, missing file,
/// unknown algorithm, and the retired `tune` subcommand and `--policy` flag.
#[test]
fn bad_invocations_fail_cleanly() {
    for args in [
        &[][..],
        &["frobnicate"][..],
        &["labels"][..],
        &["tune", "run.json"][..],
        &["--policy", "x.policy", "stats", "-"][..],
    ] {
        let out = parcc_bin().args(args).output().unwrap();
        assert!(!out.status.success(), "{args:?} should fail");
    }
    // Whatever is left once a subcommand's flags are taken — an unknown
    // flag or an extra positional — is a usage error, not silently ignored.
    for args in [
        &["stats", "g.txt", "--bogus"][..],
        &["labels", "g.txt", "--policy", "x"][..],
        &["compare", "g.txt", "junk"][..],
        &["convert", "g.txt", "g.pgb", "junk"][..],
        &["serve", "g.txt", "junk"][..],
        &["gen", "cycle", "10", "1", "8", "junk"][..],
        &["gen", "cycle", "10", "1", "8", "--json"][..],
    ] {
        let out = parcc_bin().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(
            err.contains("usage"),
            "{args:?} must print the usage: {err}"
        );
    }
    // Vertex ids are u32: gen refuses a larger graph before building it
    // (mesh2d's size is the side, so 65536² = 2^32 vertices). A bad value
    // is an invocation error like any other: exit 2, before any output.
    for args in [
        &["gen", "mesh2d", "65536"][..],
        &["gen", "path", "4294967297"][..],
        &["gen", "cycle", "10", "abc"][..],
        &["gen", "--shards", "0", "gnp", "50"][..],
    ] {
        let out = parcc_bin().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.starts_with("error:"), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} must emit no edges");
    }
    let out = parcc_bin()
        .args(["stats", "/nonexistent/graph.txt"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(!out.stderr.is_empty(), "missing file should print an error");

    let out = parcc_bin()
        .args(["--algo", "no-such-algo", "stats", "-"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "unknown --algo must fail");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        err.contains("union-find"),
        "error should list registered solvers, got: {err}"
    );

    // --algo only scopes labels/stats; silently dropping it on
    // compare/gen/serve would mislead, so it must be rejected.
    for sub in [
        &["compare", "-"][..],
        &["gen", "cycle", "10"][..],
        &["serve"][..],
    ] {
        let out = parcc_bin()
            .args(["--algo", "ltz"])
            .args(sub)
            .output()
            .unwrap();
        assert!(!out.status.success(), "--algo with {sub:?} must fail");
    }
}

/// Value-taking flags must not swallow a following flag as their value,
/// and `--threads 0` is an explicit error (matching `--shards 0`), not a
/// silent clamp, as is a count above 1024.
#[test]
fn flag_values_are_validated() {
    // `compare --baseline --json g.txt` used to set baseline="--json" and
    // then fail with a baffling file-open error; now it dies up front.
    let out = parcc_bin()
        .args(["compare", "--baseline", "--json", "/dev/null"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "--baseline --json must fail");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        err.contains("--baseline") && err.contains("--json"),
        "error should name both flags, got: {err}"
    );
    assert!(
        !err.contains("No such file"),
        "must fail at parse time, not at open time: {err}"
    );

    // Same guard on the other value-taking flags.
    let out = parcc_bin()
        .args(["--algo", "--threads", "stats", "-"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "--algo --threads must fail");

    // --threads 0 errors instead of clamping; a huge count is refused
    // before the pool (and its deques) exists.
    for (n, bound) in [("0", ">= 1"), ("100000", "<= 1024")] {
        let out = parcc_bin()
            .args(["--threads", n, "stats", "-"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "--threads {n} must fail");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains(bound), "got: {err}");
    }

    // A positive thread count still works.
    let gen = parcc_bin().args(["gen", "cycle", "30"]).output().unwrap();
    let mut child = parcc_bin()
        .args(["--threads", "2", "stats", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    std::io::Write::write_all(child.stdin.as_mut().unwrap(), &gen.stdout).unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "--threads 2 stats failed: {out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("threads:         2"), "got: {text}");
}

/// `--help`/`-h` exit 0 and document every subcommand plus the registry,
/// and no longer list the retired `tune` subcommand or `--policy` flag.
#[test]
fn help_exits_zero_with_full_usage() {
    for flag in ["--help", "-h"] {
        let out = parcc_bin().arg(flag).output().unwrap();
        assert!(out.status.success(), "{flag} must exit 0");
        let text = String::from_utf8(out.stdout).unwrap();
        for needle in [
            "labels",
            "stats",
            "compare",
            "--algo",
            "--json",
            "gen",
            "serve",
            "same-component",
            "paper",
        ] {
            assert!(text.contains(needle), "{flag} output missing '{needle}'");
        }
        for gone in ["tune", "--policy"] {
            assert!(!text.contains(gone), "{flag} output still lists '{gone}'");
        }
    }
}

/// `--algo` selects a registered solver for labels/stats, and every choice
/// reports the oracle component count.
#[test]
fn algo_flag_selects_solver() {
    let gen = parcc_bin()
        .args(["gen", "gnp", "200", "3"])
        .output()
        .unwrap();
    assert!(gen.status.success());
    let g = read_edge_list(std::io::Cursor::new(&gen.stdout[..])).unwrap();
    let truth: HashSet<u32> = components(&g).into_iter().collect();

    for algo in ["paper", "ltz", "union-find", "shiloach-vishkin"] {
        let mut child = parcc_bin()
            .args(["--algo", algo, "stats", "-"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .unwrap();
        std::io::Write::write_all(child.stdin.as_mut().unwrap(), &gen.stdout).unwrap();
        let out = child.wait_with_output().unwrap();
        assert!(out.status.success(), "--algo {algo} stats failed: {out:?}");
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.contains(&format!("algorithm:       {algo}")));
        let reported: usize = text
            .lines()
            .find_map(|l| l.strip_prefix("components:"))
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        assert_eq!(reported, truth.len(), "--algo {algo} wrong count");
    }
}

/// `compare --json` runs every registered solver, verified, and the JSON
/// carries one entry per solver.
#[test]
fn compare_json_covers_the_registry() {
    let gen = parcc_bin()
        .args(["gen", "gnp", "300", "5"])
        .output()
        .unwrap();
    assert!(gen.status.success());
    let mut child = parcc_bin()
        .args(["compare", "--json", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    std::io::Write::write_all(child.stdin.as_mut().unwrap(), &gen.stdout).unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "compare --json failed: {out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("\"all_verified\": true"), "got: {text}");
    for name in parcc::solver::names() {
        assert!(
            text.contains(&format!("\"name\": \"{name}\"")),
            "JSON missing solver {name}"
        );
    }
    assert!(!text.contains("\"verified\": false"));

    // Human-readable form works too and reports every solver as verified.
    let tmp = std::env::temp_dir().join(format!("parcc-cli-cmp-{}.txt", std::process::id()));
    std::fs::write(&tmp, &gen.stdout).unwrap();
    let out = parcc_bin().arg("compare").arg(&tmp).output().unwrap();
    let _ = std::fs::remove_file(&tmp);
    assert!(out.status.success());
    let table = String::from_utf8(out.stdout).unwrap();
    assert!(!table.contains("MISMATCH"));
}

/// `gen --shards K` emits the sharded on-disk format; piping it through
/// `compare -` exercises the sharded path end to end (the acceptance
/// criterion), and the same bytes still parse as a flat graph.
#[test]
fn gen_shards_pipes_through_sharded_compare() {
    let gen_sharded = parcc_bin()
        .args(["gen", "--shards", "4", "gnp", "300", "5"])
        .output()
        .expect("run parcc gen --shards");
    assert!(gen_sharded.status.success(), "{gen_sharded:?}");
    let text = String::from_utf8(gen_sharded.stdout.clone()).unwrap();
    assert!(text.contains("# shards: 4"), "missing shards header");
    assert!(text.contains("# shard 3"), "missing shard markers");

    // Sharded emit ≡ flat emit, edge for edge.
    let flat = parcc_bin()
        .args(["gen", "gnp", "300", "5"])
        .output()
        .unwrap();
    let g_flat = read_edge_list(std::io::Cursor::new(&flat.stdout[..])).unwrap();
    let g_sharded = read_edge_list(std::io::Cursor::new(&gen_sharded.stdout[..])).unwrap();
    assert_eq!(g_flat, g_sharded, "markers must be the only difference");

    // parcc gen --shards 4 … | parcc compare - (all solvers, verified).
    let mut child = parcc_bin()
        .args(["compare", "--json", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    std::io::Write::write_all(child.stdin.as_mut().unwrap(), &gen_sharded.stdout).unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "sharded compare failed: {out:?}");
    let json = String::from_utf8(out.stdout).unwrap();
    assert!(json.contains("\"shards\": 4"), "shard telemetry: {json}");
    assert!(json.contains("\"all_verified\": true"), "got: {json}");

    // stats reports the shard telemetry too.
    let mut child = parcc_bin()
        .args(["stats", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    std::io::Write::write_all(child.stdin.as_mut().unwrap(), &gen_sharded.stdout).unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let stats = String::from_utf8(out.stdout).unwrap();
    let shard_line = stats
        .lines()
        .find_map(|l| l.strip_prefix("shards:"))
        .expect("stats must print a shards line");
    assert!(shard_line.trim().starts_with('4'), "got: {shard_line}");

    // --shards outside gen is rejected, as is --shards 0.
    let out = parcc_bin()
        .args(["--shards", "4", "stats", "-"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "--shards with stats must fail");
    let out = parcc_bin()
        .args(["gen", "--shards", "0", "gnp", "50"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "--shards 0 must fail");
}

/// Re-indent JSON text one value per line, two spaces a level — the
/// layout `python3 -m json.tool` writes.
fn reindent(json: &str) -> String {
    let (mut out, mut depth, mut in_str, mut escaped) = (String::new(), 0usize, false, false);
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    };
    for c in json.chars() {
        if in_str {
            out.push(c);
            (in_str, escaped) = (escaped || c != '"', !escaped && c == '\\');
            continue;
        }
        match c {
            '"' => {
                in_str = true;
                out.push(c);
            }
            '{' | '[' => {
                depth += 1;
                out.push(c);
                newline(&mut out, depth);
            }
            '}' | ']' => {
                depth -= 1;
                newline(&mut out, depth);
                out.push(c);
            }
            ',' => {
                out.push(c);
                newline(&mut out, depth);
            }
            c if c.is_whitespace() => {}
            c => out.push(c),
        }
    }
    out
}

/// `compare --baseline` warns (warn-only) on slowdowns against a stored
/// `compare --json` run, and stays quiet when nothing regressed.
#[test]
fn compare_baseline_hook_warns_on_slowdowns_only() {
    let gen = parcc_bin()
        .args(["gen", "gnp", "300", "5"])
        .output()
        .unwrap();
    assert!(gen.status.success());
    let graph = std::env::temp_dir().join(format!("parcc-cli-base-g-{}.txt", std::process::id()));
    std::fs::write(&graph, &gen.stdout).unwrap();

    // Store a baseline from a real run.
    let base_out = parcc_bin()
        .args(["compare", "--json"])
        .arg(&graph)
        .output()
        .unwrap();
    assert!(base_out.status.success());
    let base = std::env::temp_dir().join(format!("parcc-cli-base-{}.json", std::process::id()));

    // An impossibly fast fabricated baseline must trigger warnings without
    // changing the exit status.
    let fabricated: String = String::from_utf8(base_out.stdout.clone())
        .unwrap()
        .lines()
        .map(|l| {
            if let Some(i) = l.find("\"wall_ms\":") {
                let rest = &l[i..];
                let end = rest.find(',').unwrap();
                format!("{}\"wall_ms\": 0.000001{}\n", &l[..i], &rest[end..])
            } else {
                format!("{l}\n")
            }
        })
        .collect();
    std::fs::write(&base, fabricated).unwrap();
    let out = parcc_bin()
        .args(["compare", "--baseline"])
        .arg(&base)
        .arg(&graph)
        .output()
        .unwrap();
    assert!(out.status.success(), "baseline warnings must be warn-only");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        err.contains("vs baseline") && err.contains("warn-only"),
        "expected regression warnings, got: {err}"
    );

    // A genuine same-machine baseline with generous headroom stays quiet
    // on the wall front; write walls of 1e9 so nothing can exceed 1.25x.
    let generous: String = String::from_utf8(base_out.stdout)
        .unwrap()
        .lines()
        .map(|l| {
            if let Some(i) = l.find("\"wall_ms\":") {
                let rest = &l[i..];
                let end = rest.find(',').unwrap();
                format!("{}\"wall_ms\": 1000000000.0{}\n", &l[..i], &rest[end..])
            } else {
                format!("{l}\n")
            }
        })
        .collect();
    std::fs::write(&base, &generous).unwrap();
    let out = parcc_bin()
        .args(["compare", "--baseline"])
        .arg(&base)
        .arg(&graph)
        .output()
        .unwrap();
    assert!(out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        !err.contains("wall") || !err.contains("vs baseline"),
        "no wall warnings expected, got: {err}"
    );

    // The baseline is read by key, not by line: the same document
    // re-indented one value per line still reads, and stays quiet.
    std::fs::write(&base, reindent(&generous)).unwrap();
    let out = parcc_bin()
        .args(["compare", "--baseline"])
        .arg(&base)
        .arg(&graph)
        .output()
        .unwrap();
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        out.status.success(),
        "re-indented baseline must read: {err}"
    );
    assert!(!err.contains("vs baseline"), "no warnings expected: {err}");

    // A file holding several runs (CI's BENCH_compare.json) is not one
    // baseline, and neither is a run on a graph of another size.
    let other = std::env::temp_dir().join(format!("parcc-cli-base-o-{}.txt", std::process::id()));
    let gen_other = parcc_bin()
        .args(["gen", "gnp", "301", "5"])
        .output()
        .unwrap();
    std::fs::write(&other, &gen_other.stdout).unwrap();
    let runs = format!("{{\n\"g_t1\": {generous},\n\"g_t4\": {generous}\n}}");
    let multi = std::env::temp_dir().join(format!("parcc-cli-base-m-{}.json", std::process::id()));
    std::fs::write(&multi, runs).unwrap();
    for (baseline, input, needle) in [(&multi, &graph, "not one"), (&base, &other, "vertices")] {
        let out = parcc_bin()
            .args(["compare", "--baseline"])
            .arg(baseline)
            .arg(input)
            .output()
            .unwrap();
        assert!(!out.status.success(), "{baseline:?} on {input:?} must fail");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains(needle), "expected '{needle}', got: {err}");
    }
    let _ = std::fs::remove_file(&other);
    let _ = std::fs::remove_file(&multi);

    // A garbage baseline file is a hard error (it's an explicit request).
    let out = parcc_bin()
        .args(["compare", "--baseline", "/nonexistent/base.json"])
        .arg(&graph)
        .output()
        .unwrap();
    assert!(!out.status.success(), "missing baseline file must fail");

    let _ = std::fs::remove_file(&graph);
    let _ = std::fs::remove_file(&base);
}

/// `parcc convert` writes the PGB binary, `--verify` round-trips it, and
/// every subcommand transparently accepts the binary file: stats reports
/// the mmap storage line and the same component count as the text input,
/// and `compare --json` off the mapped store verifies the whole registry.
#[test]
fn convert_roundtrip_and_binary_inputs() {
    let gen = parcc_bin()
        .args(["gen", "--shards", "3", "gnp", "400", "9"])
        .output()
        .unwrap();
    assert!(gen.status.success());
    let g = read_edge_list(std::io::Cursor::new(&gen.stdout[..])).unwrap();
    let truth: HashSet<u32> = components(&g).into_iter().collect();
    let dir = std::env::temp_dir();
    let txt = dir.join(format!("parcc-cli-conv-{}.txt", std::process::id()));
    let pgb = dir.join(format!("parcc-cli-conv-{}.pgb", std::process::id()));
    std::fs::write(&txt, &gen.stdout).unwrap();

    let out = parcc_bin()
        .arg("convert")
        .arg("--verify")
        .arg(&txt)
        .arg(&pgb)
        .output()
        .unwrap();
    assert!(out.status.success(), "convert --verify failed: {out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.contains("verified: structure and partition match"),
        "got: {text}"
    );
    assert!(text.contains("3 shards"), "shard count survives: {text}");

    // The binary magic-sniffs through stats; the storage line proves the
    // mapped backend actually served the solve.
    let out = parcc_bin().arg("stats").arg(&pgb).output().unwrap();
    assert!(out.status.success(), "binary stats failed: {out:?}");
    let stats = String::from_utf8(out.stdout).unwrap();
    assert!(stats.contains("storage:         binary"), "got: {stats}");
    let reported: usize = stats
        .lines()
        .find_map(|l| l.strip_prefix("components:"))
        .unwrap()
        .trim()
        .parse()
        .unwrap();
    assert_eq!(reported, truth.len(), "binary stats component count");

    // compare --json off the mapped store: all 9 solvers, all verified —
    // the acceptance gate, at 1 and 4 threads.
    for threads in ["1", "4"] {
        let out = parcc_bin()
            .args(["--threads", threads, "compare", "--json"])
            .arg(&pgb)
            .output()
            .unwrap();
        assert!(out.status.success(), "binary compare@{threads}t: {out:?}");
        let json = String::from_utf8(out.stdout).unwrap();
        assert!(json.contains("\"all_verified\": true"), "got: {json}");
        assert!(json.contains("\"shards\": 3"), "got: {json}");
    }

    // Corrupting the magic must be rejected with the format error, and
    // binary bytes on stdin are refused up front (mmap needs a file).
    let mut bytes = std::fs::read(&pgb).unwrap();
    bytes[0] ^= 0xFF;
    let bad = dir.join(format!("parcc-cli-conv-bad-{}.pgb", std::process::id()));
    std::fs::write(&bad, &bytes).unwrap();
    bytes[0] ^= 0xFF; // restore the magic for the stdin probe below
    let out = parcc_bin().arg("stats").arg(&bad).output().unwrap();
    let _ = std::fs::remove_file(&bad);
    // Sniffing sees no magic, so the file parses as (garbage) text — either
    // way it must fail, not mis-load.
    assert!(!out.status.success(), "corrupted binary must not load");
    let mut child = parcc_bin()
        .args(["stats", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    std::io::Write::write_all(child.stdin.as_mut().unwrap(), &bytes).unwrap();
    drop(child.stdin.take());
    let out = child.wait_with_output().unwrap();
    assert!(!out.status.success(), "binary on stdin must fail");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        err.contains("stdin"),
        "should explain the limitation: {err}"
    );

    let _ = std::fs::remove_file(&txt);
    let _ = std::fs::remove_file(&pgb);
}

/// `--ooc` streams a binary shard-at-a-time: stats prints the residency
/// telemetry and the oracle count; misuse (text input, an explicit
/// `--algo`, wrong subcommand) dies with a precise error.
#[test]
fn ooc_streams_binaries_and_rejects_misuse() {
    let gen = parcc_bin()
        .args(["gen", "--shards", "4", "powerlaw", "500", "7"])
        .output()
        .unwrap();
    assert!(gen.status.success());
    let g = read_edge_list(std::io::Cursor::new(&gen.stdout[..])).unwrap();
    let truth: HashSet<u32> = components(&g).into_iter().collect();
    let dir = std::env::temp_dir();
    let txt = dir.join(format!("parcc-cli-ooc-{}.txt", std::process::id()));
    let pgb = dir.join(format!("parcc-cli-ooc-{}.pgb", std::process::id()));
    std::fs::write(&txt, &gen.stdout).unwrap();
    let out = parcc_bin()
        .arg("convert")
        .arg(&txt)
        .arg(&pgb)
        .output()
        .unwrap();
    assert!(out.status.success());

    let out = parcc_bin()
        .arg("--ooc")
        .arg("stats")
        .arg(&pgb)
        .output()
        .unwrap();
    assert!(out.status.success(), "--ooc stats failed: {out:?}");
    let stats = String::from_utf8(out.stdout).unwrap();
    assert!(stats.contains("out-of-core"), "got: {stats}");
    assert!(stats.contains("resident peak:"), "got: {stats}");
    let reported: usize = stats
        .lines()
        .find_map(|l| l.strip_prefix("components:"))
        .unwrap()
        .trim()
        .parse()
        .unwrap();
    assert_eq!(reported, truth.len(), "--ooc component count");

    // labels --ooc agrees with labels off the same binary.
    let direct = parcc_bin().arg("labels").arg(&pgb).output().unwrap();
    let ooc = parcc_bin()
        .arg("--ooc")
        .arg("labels")
        .arg(&pgb)
        .output()
        .unwrap();
    assert!(direct.status.success() && ooc.status.success());
    let count = |out: &[u8]| -> HashSet<String> {
        String::from_utf8_lossy(out)
            .lines()
            .map(|l| l.split_whitespace().nth(1).unwrap().to_string())
            .collect()
    };
    assert_eq!(
        count(&direct.stdout).len(),
        count(&ooc.stdout).len(),
        "--ooc labels partition size"
    );

    // Misuse: text input, an explicit solver, wrong subcommand.
    let out = parcc_bin()
        .arg("--ooc")
        .arg("stats")
        .arg(&txt)
        .output()
        .unwrap();
    assert!(!out.status.success(), "--ooc on text must fail");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("convert"), "should point at convert: {err}");
    let out = parcc_bin()
        .args(["--ooc", "--algo", "paper", "stats"])
        .arg(&pgb)
        .output()
        .unwrap();
    assert!(!out.status.success(), "--ooc --algo paper must fail");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("always use union-find"), "got: {err}");
    let out = parcc_bin()
        .arg("--ooc")
        .arg("compare")
        .arg(&pgb)
        .output()
        .unwrap();
    assert!(!out.status.success(), "--ooc compare must fail");

    let _ = std::fs::remove_file(&txt);
    let _ = std::fs::remove_file(&pgb);
}

/// `gen mesh2d SIDE` emits a side×side grid (n = side², m = 2·side·(side-1)),
/// flat and sharded bytes describe the same graph, and the hybrid solver
/// reports its phase telemetry on it through stats.
#[test]
fn gen_mesh2d_and_hybrid_phase_telemetry() {
    let side = 20usize;
    let flat = parcc_bin()
        .args(["gen", "mesh2d", &side.to_string()])
        .output()
        .unwrap();
    assert!(flat.status.success(), "{flat:?}");
    let g = read_edge_list(std::io::Cursor::new(&flat.stdout[..])).unwrap();
    assert_eq!(g.n(), side * side, "mesh2d n = side^2");
    assert_eq!(g.m(), 2 * side * (side - 1), "mesh2d edge count");
    assert_eq!(
        components(&g).into_iter().collect::<HashSet<u32>>().len(),
        1
    );

    // Sharded emit ≡ flat emit once the shard markers are stripped.
    let sharded = parcc_bin()
        .args(["gen", "--shards", "4", "mesh2d", &side.to_string()])
        .output()
        .unwrap();
    assert!(sharded.status.success());
    let text = String::from_utf8(sharded.stdout.clone()).unwrap();
    assert!(text.contains("# shards: 4"), "missing shards header");
    let g_sharded = read_edge_list(std::io::Cursor::new(&sharded.stdout[..])).unwrap();
    assert_eq!(g, g_sharded, "markers must be the only difference");

    // The hybrid's phase telemetry reaches the stats output: one link
    // pass and one compress pass.
    let mut child = parcc_bin()
        .args(["--algo", "hybrid", "stats", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    std::io::Write::write_all(child.stdin.as_mut().unwrap(), &flat.stdout).unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "hybrid stats failed: {out:?}");
    let stats = String::from_utf8(out.stdout).unwrap();
    for needle in ["phase link:", "phase compress:"] {
        assert!(stats.contains(needle), "missing '{needle}' in: {stats}");
    }
    let reported: usize = stats
        .lines()
        .find_map(|l| l.strip_prefix("components:"))
        .unwrap()
        .trim()
        .parse()
        .unwrap();
    assert_eq!(reported, 1, "mesh is connected");
}

/// `compare --baseline --fail` exits non-zero past the warn gates (the CI
/// strict mode); `--fail` without `--baseline` is rejected up front.
#[test]
fn compare_fail_hardens_baseline_warnings() {
    let gen = parcc_bin()
        .args(["gen", "gnp", "300", "5"])
        .output()
        .unwrap();
    assert!(gen.status.success());
    let dir = std::env::temp_dir();
    let graph = dir.join(format!("parcc-cli-fail-g-{}.txt", std::process::id()));
    std::fs::write(&graph, &gen.stdout).unwrap();
    let base_out = parcc_bin()
        .args(["compare", "--json"])
        .arg(&graph)
        .output()
        .unwrap();
    assert!(base_out.status.success());
    let base = dir.join(format!("parcc-cli-fail-b-{}.json", std::process::id()));

    // Fabricate an impossibly fast baseline: every solver regresses, and
    // --fail must turn the warn-only outcome into exit 1.
    let fabricated: String = String::from_utf8(base_out.stdout.clone())
        .unwrap()
        .lines()
        .map(|l| {
            if let Some(i) = l.find("\"wall_ms\":") {
                let rest = &l[i..];
                let end = rest.find(',').unwrap();
                format!("{}\"wall_ms\": 0.000001{}\n", &l[..i], &rest[end..])
            } else {
                format!("{l}\n")
            }
        })
        .collect();
    std::fs::write(&base, fabricated).unwrap();
    let out = parcc_bin()
        .args(["compare", "--fail", "--baseline"])
        .arg(&base)
        .arg(&graph)
        .output()
        .unwrap();
    assert!(!out.status.success(), "--fail must exit non-zero: {out:?}");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--fail"), "error names the flag: {err}");

    // A generous baseline passes under --fail.
    let generous: String = String::from_utf8(base_out.stdout)
        .unwrap()
        .lines()
        .map(|l| {
            if let Some(i) = l.find("\"wall_ms\":") {
                let rest = &l[i..];
                let end = rest.find(',').unwrap();
                format!("{}\"wall_ms\": 1000000000.0{}\n", &l[..i], &rest[end..])
            } else {
                format!("{l}\n")
            }
        })
        .collect();
    std::fs::write(&base, generous).unwrap();
    let out = parcc_bin()
        .args(["compare", "--fail", "--baseline"])
        .arg(&base)
        .arg(&graph)
        .output()
        .unwrap();
    assert!(out.status.success(), "headroom baseline must pass: {out:?}");

    // --fail without --baseline has nothing to harden.
    let out = parcc_bin()
        .args(["compare", "--fail"])
        .arg(&graph)
        .output()
        .unwrap();
    assert!(!out.status.success(), "--fail alone must be rejected");

    let _ = std::fs::remove_file(&graph);
    let _ = std::fs::remove_file(&base);
}

/// `gen` reports size clamps on stderr instead of silently resizing, and
/// accepts an average-degree argument for the random families.
#[test]
fn gen_reports_clamps_and_honours_avg_degree() {
    let out = parcc_bin().args(["gen", "cycle", "1"]).output().unwrap();
    assert!(out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("n >= 3"), "clamp must be reported, got: {err}");
    let g = read_edge_list(std::io::Cursor::new(&out.stdout[..])).unwrap();
    assert_eq!(g.n(), 3);

    // No clamp → no note.
    let out = parcc_bin().args(["gen", "cycle", "50"]).output().unwrap();
    assert!(out.status.success());
    assert!(out.stderr.is_empty(), "no clamp should print nothing");

    // avg-deg steers the expander's regular degree (m = n·d/2).
    let out = parcc_bin()
        .args(["gen", "expander", "100", "3", "16"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let g = read_edge_list(std::io::Cursor::new(&out.stdout[..])).unwrap();
    assert_eq!(g.m(), 100 * 16 / 2, "expander avg-deg 16");

    // avg-deg too large for n is clamped with a note.
    let out = parcc_bin()
        .args(["gen", "expander", "10", "3", "99"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("must be < n"), "degree clamp reported: {err}");

    // Bad avg-deg fails.
    let out = parcc_bin()
        .args(["gen", "gnp", "100", "3", "-2"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "negative avg-deg must fail");
}
