//! `parcc` — command-line connected components.
//!
//! ```text
//! parcc stats g.txt                    # components, sizes, simulated PRAM cost
//! parcc --algo ltz labels g.txt        # one label per vertex, any registered solver
//! parcc compare --json g.txt > b.json  # every registered solver, oracle-verified
//! parcc compare --baseline b.json g.txt # warn on wall/depth regressions
//! parcc gen --shards 4 gnp 10000 7 12 > g.txt # seed 7, average degree 12
//! parcc convert --verify g.txt g.pgb   # text -> zero-copy binary (PGB)
//! parcc --ooc stats g.pgb              # out-of-core: shard-at-a-time solve
//! parcc serve --wal g.wal g.pgb        # long-lived insert/query protocol
//! cat g.txt | parcc stats -            # '-' reads stdin
//! parcc --help                         # full usage + solver table
//! ```
//!
//! Text input: `u v` per line (any whitespace, tabs included), `#`/`%`
//! comments, optional `# nodes: N` (SNAP's `# Nodes: N Edges: M` banner
//! works too); sharded files add `# shards: K` and `# shard i` markers
//! (still valid flat files — the markers are comments). Binary input is
//! the PGB format written by `convert` (magic-sniffed automatically):
//! page-aligned shards of packed edge words, memory-mapped and served to
//! the solvers zero-copy. Text streams in chunks into a [`ShardedGraph`];
//! either way solving goes through the shard-aware registry entry, so the
//! flat edge vector never materializes for the native solvers.
//!
//! The worker pool size is `--threads N` if given, else the `PARCC_THREADS`
//! env var, else the machine's available parallelism. `--threads 1` runs
//! fully sequentially and bit-for-bit deterministically.
//!
//! The whole command line is checked before any command runs: a bad one
//! exits 2 (printing the usage when its shape is wrong), and a command
//! that fails exits 1.

use parcc::core::ComponentIndex;
use parcc::graph::generators as gen;
use parcc::graph::io::{
    open_binary, open_store, read_edge_list_sharded, save_binary, write_edge_list,
    write_edge_list_sharded, LoadedStore, DEFAULT_LOAD_CHUNK,
};
use parcc::graph::traverse::same_partition;
use parcc::graph::wal::SyncPolicy;
use parcc::graph::{Graph, GraphStore, ShardedGraph};
use parcc::pram::alloc_track;
use parcc::solver::compare::{compare_json, Baseline, Finding};
use parcc::solver::serve::{self, Session};
use parcc::solver::{self, ComponentSolver, SolveCtx};
use std::io::{BufRead, Write};
use std::path::Path;
use std::time::Instant;

/// The CLI installs the counting-allocator hook so `stats`/`compare`
/// report real `allocs`/`peak_bytes` telemetry. Overhead is two relaxed
/// atomic ops per heap allocation — and the point of the hot-path work is
/// that the solve loops barely allocate at all.
#[global_allocator]
static ALLOC: alloc_track::CountingAllocator = alloc_track::CountingAllocator;

/// Load any input — text (flat or shard-marked, streamed into a
/// [`ShardedGraph`]) or PGB binary (magic-sniffed, memory-mapped and
/// endpoint-validated) — plus the load wall time. stdin (`-`) is text
/// only: a mapped store needs a seekable file.
fn load(path: &str) -> Result<(LoadedStore, std::time::Duration), String> {
    let start = Instant::now();
    let loaded = if path == "-" {
        let mut lock = std::io::stdin().lock();
        let head = lock.fill_buf().map_err(|e| e.to_string())?;
        if head.starts_with(&parcc::graph::mmap::MAGIC) {
            return Err(
                "binary (PGB) input cannot be read from stdin; pass the file path instead".into(),
            );
        }
        read_edge_list_sharded(lock, DEFAULT_LOAD_CHUNK).map(LoadedStore::Text)?
    } else {
        open_store(path, DEFAULT_LOAD_CHUNK)?
    };
    Ok((loaded, start.elapsed()))
}

/// `"K (sizes [a, b, …])"` — the shard telemetry line.
fn shard_summary(sizes: &[usize]) -> String {
    let ell = if sizes.len() > 8 { ", …" } else { "" };
    format!(
        "{} (sizes {:?}{ell})",
        sizes.len(),
        &sizes[..sizes.len().min(8)]
    )
}

/// The `storage:` stats line: which backend the input landed in.
fn storage_summary(loaded: &LoadedStore) -> String {
    match loaded {
        LoadedStore::Text(_) => "text (parsed to heap shards)".into(),
        LoadedStore::Mapped(mg) => {
            let how = if mg.is_zero_copy() {
                "mmap zero-copy"
            } else {
                "decoded to heap"
            };
            let mib = mg.file_bytes() as f64 / f64::from(1 << 20);
            format!("binary ({how}, {mib:.1} MiB on disk)")
        }
    }
}

fn usage_text() -> String {
    let mut s = String::from(
        "usage:\n\
         \x20 parcc [--threads N] [--algo NAME | --ooc] labels  <file|->\n\
         \x20 parcc [--threads N] [--algo NAME | --ooc] stats   <file|->\n\
         \x20 parcc [--threads N] compare [--json] [--baseline FILE [--fail]] <file|->\n\
         \x20 parcc [--threads N] serve [--wal PATH [--wal-sync P]] [file]\n\
         \x20 parcc convert [--verify] <in: file|-> <out.pgb>\n\
         \x20 parcc gen [--shards K] <cycle|path|expander|gnp|powerlaw|mesh2d> <n> [seed] [avg-deg]\n\
         \x20 parcc --help | -h\n\
         \n\
         \x20 labels    print one `vertex label` row per vertex\n\
         \x20 stats     components, sizes (via ComponentIndex), simulated PRAM cost,\n\
         \x20           shard + storage telemetry\n\
         \x20 compare   run EVERY registered solver on the same graph, verify each\n\
         \x20           partition against the union-find oracle, print a table\n\
         \x20           (--json for machine-readable output; exit 1 on any mismatch;\n\
         \x20           --baseline FILE diffs wall/depth against a stored\n\
         \x20           `compare --json` output and warns on slowdowns — warn-only\n\
         \x20           unless --fail promotes the warnings to exit status 1,\n\
         \x20           for fixed-hardware CI runners)\n\
         \x20 convert   write any input (text or binary) as a PGB binary file:\n\
         \x20           page-aligned packed-edge shards that later runs memory-map\n\
         \x20           zero-copy (--verify re-opens the output and checks the\n\
         \x20           structure and the solved partition match the input)\n\
         \x20 gen       write a generated edge list to stdout; avg-deg applies to\n\
         \x20           expander/gnp/powerlaw (default 8); --shards K emits the\n\
         \x20           sharded on-disk format (gnp/powerlaw/mesh2d build shards\n\
         \x20           natively); mesh2d takes the grid SIDE as <n> (n = side²,\n\
         \x20           the high-diameter family where label-prop needs Θ(side) rounds)\n\
         \x20 serve     long-lived line protocol on stdin/stdout (commands below):\n\
         \x20           writers `add` and `commit` edge batches, a background merge\n\
         \x20           absorbs them by incremental union-find, and reads answer\n\
         \x20           from epoch-pinned snapshots without blocking on merges.\n\
         \x20           [file] preloads a graph as epoch 0 (a PGB file straight off\n\
         \x20           the map; not '-': stdin is the protocol channel). --wal PATH\n\
         \x20           logs every commit before its ack, replays the log on start\n\
         \x20           (truncating a torn tail) and compacts it on `save`;\n\
         \x20           --wal-sync batch|interval|off picks the fsync cadence\n\
         \x20           (default batch: one fsync per commit)\n\
         \n\
         \x20 --threads N   worker pool size (else PARCC_THREADS, else all cores)\n\
         \x20 --algo NAME   solver for labels/stats (default: paper; serve and\n\
         \x20               --ooc always use union-find)\n\
         \x20 --ooc         out-of-core: stream a PGB binary shard-at-a-time\n\
         \x20               through incremental union-find, releasing\n\
         \x20               each shard's pages behind the cursor (labels/stats,\n\
         \x20               binary input only; residency stays near one shard)\n\
         \n\
         \x20 inputs may be flat or sharded text edge lists, or PGB binaries\n\
         \x20 (auto-detected); text streams in chunks, binaries map zero-copy,\n\
         \x20 and everything is solved shard-aware; a bad command line exits 2\n\
         \n\
         serve ",
    );
    s.push_str(serve::HELP);
    s.push_str("\n\nregistered solvers (parcc compare runs them all):\n");
    for sv in solver::registry() {
        s.push_str(&format!("  {:<18} {}\n", sv.name(), sv.description()));
    }
    s
}

/// A command line that cannot run. Either kind exits 2 before any
/// command starts.
enum Invalid {
    /// The wrong shape — no or an unknown subcommand, a missing, extra
    /// or flag-like operand: print the usage.
    Usage,
    /// A bad flag or value: say what.
    Bad(String),
}

impl From<String> for Invalid {
    fn from(e: String) -> Self {
        Self::Bad(e)
    }
}

fn bad(e: &str) -> Invalid {
    Invalid::Bad(e.into())
}

/// A checked command, ready to run.
type Run = Box<dyn FnOnce() -> Result<(), String>>;

/// Strip `--flag value` (anywhere before positional arguments); returns the
/// value if the flag was present.
fn take_flag_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(pos) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if pos + 1 >= args.len() {
        return Err(format!("{flag} needs a value"));
    }
    let value = args[pos + 1].clone();
    // `--baseline --json` must not swallow `--json` as the baseline path —
    // that used to surface as a baffling "cannot open --json" later.
    if value.starts_with("--") {
        return Err(format!("{flag} needs a value, but found flag '{value}'"));
    }
    args.drain(pos..=pos + 1);
    Ok(Some(value))
}

/// Strip a bare `--flag`; returns whether it was present.
fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    let Some(pos) = args.iter().position(|a| a == flag) else {
        return false;
    };
    args.remove(pos);
    true
}

/// The operands after the subcommand once its flags are taken: `min` to
/// `max` of them, and none of them a flag (`-` alone is stdin).
fn operands(args: &[String], min: usize, max: usize) -> Result<Vec<String>, Invalid> {
    let rest = &args[1..];
    if rest.len() < min || rest.len() > max || rest.iter().any(|a| a.starts_with('-') && a != "-") {
        return Err(Invalid::Usage);
    }
    Ok(rest.to_vec())
}

/// Largest `--threads` value: the 1024-CPU `cpu_set_t` width.
const MAX_THREADS: usize = 1024;

/// Check the whole command line — every flag, operand and value — then
/// size the worker pool. No command starts before this succeeds.
fn parse(mut args: Vec<String>) -> Result<Run, Invalid> {
    let threads = take_flag_value(&mut args, "--threads")?
        .map(|v| match v.parse::<usize>() {
            // Match `--shards 0`: an explicit error beats a silent clamp to 1.
            Ok(0) => Err("--threads must be >= 1".to_string()),
            // Checked before the pool exists: it would allocate n − 1 deques.
            Ok(n) if n > MAX_THREADS => Err(format!("--threads must be <= {MAX_THREADS}")),
            Ok(n) => Ok(n),
            Err(e) => Err(format!("bad --threads value: {e}")),
        })
        .transpose()?;
    let algo = take_flag_value(&mut args, "--algo")?;
    let shards = take_flag_value(&mut args, "--shards")?;
    let ooc = take_flag(&mut args, "--ooc");
    let wal = take_flag_value(&mut args, "--wal")?;
    let wal_sync = take_flag_value(&mut args, "--wal-sync")?;
    let sub = args.first().cloned().unwrap_or_default();
    let solves = matches!(sub.as_str(), "labels" | "stats");
    if wal.is_some() && sub != "serve" {
        return Err(bad("--wal is only valid with serve"));
    }
    if wal_sync.is_some() && wal.is_none() {
        return Err(bad("--wal-sync requires --wal PATH"));
    }
    if algo.is_some() && (ooc || !solves) {
        return Err(bad(
            "--algo is only valid with labels/stats (compare runs every solver; \
             serve and --ooc always use union-find)",
        ));
    }
    if shards.is_some() && sub != "gen" {
        return Err(bad(
            "--shards is only valid with gen (inputs carry their own shard markers)",
        ));
    }
    if ooc && !solves {
        return Err(bad("--ooc is only valid with labels/stats"));
    }
    let run: Run = match sub.as_str() {
        "labels" | "stats" => {
            let registered = solver::names().join(", ");
            let algo = match algo {
                None => solver::default_solver(),
                Some(name) => solver::find(&name).ok_or_else(|| {
                    format!("unknown algorithm '{name}'; registered: {registered}")
                })?,
            };
            let path = operands(&args, 1, 1)?.remove(0);
            if sub == "labels" {
                Box::new(move || cmd_labels(algo, &path, ooc))
            } else {
                Box::new(move || cmd_stats(algo, &path, ooc))
            }
        }
        "compare" => {
            // Value-taking flags first: `--baseline --json` must die with
            // a clean "needs a value" error instead of eating `--json`.
            let baseline = take_flag_value(&mut args, "--baseline")?;
            let json = take_flag(&mut args, "--json");
            let fail = take_flag(&mut args, "--fail");
            if fail && baseline.is_none() {
                return Err(bad(
                    "--fail only makes sense with --baseline (it hardens its warnings)",
                ));
            }
            let path = operands(&args, 1, 1)?.remove(0);
            Box::new(move || cmd_compare(&path, json, baseline.as_deref(), fail))
        }
        "convert" => {
            let verify = take_flag(&mut args, "--verify");
            let [input, output] =
                <[String; 2]>::try_from(operands(&args, 2, 2)?).expect("two operands");
            Box::new(move || cmd_convert(&input, &output, verify))
        }
        "gen" => parse_gen(&operands(&args, 2, 4)?, shards.as_deref())?,
        "serve" => {
            let preload = operands(&args, 0, 1)?.pop();
            if preload.as_deref() == Some("-") {
                return Err(bad(
                    "serve reads its protocol from stdin; preload from a file, not '-'",
                ));
            }
            let sync = SyncPolicy::parse(wal_sync.as_deref().unwrap_or("batch"))?;
            Box::new(move || cmd_serve(preload.as_deref(), wal.map(|path| (path, sync))))
        }
        _ => return Err(Invalid::Usage),
    };
    if let Some(n) = threads {
        rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build_global()
            .map_err(|e| e.to_string())?;
    }
    Ok(run)
}

/// `gen <family> <n> [seed] [avg-deg]` under `--shards K`, checked.
fn parse_gen(ops: &[String], shards: Option<&str>) -> Result<Run, String> {
    let family = ops[0].clone();
    if !["cycle", "path", "mesh2d", "expander", "gnp", "powerlaw"].contains(&family.as_str()) {
        return Err(format!("unknown family '{family}'"));
    }
    let n: usize = ops[1].parse().map_err(|e| format!("bad size: {e}"))?;
    let seed: u64 = ops
        .get(2)
        .map_or(Ok(1), |s| s.parse())
        .map_err(|e| format!("bad seed: {e}"))?;
    let avg_deg = ops
        .get(3)
        .map(|s| s.parse::<f64>())
        .transpose()
        .map_err(|e| format!("bad avg-deg: {e}"))?;
    if let Some(d) = avg_deg.filter(|d| *d <= 0.0 || !d.is_finite()) {
        return Err(format!("avg-deg must be positive, got {d}"));
    }
    let k = match shards.map(str::parse::<usize>).transpose() {
        Ok(Some(0)) => return Err("--shards must be >= 1".into()),
        Ok(k) => k.unwrap_or(0),
        Err(e) => return Err(format!("bad --shards value: {e}")),
    };
    // Vertex ids are u32. Refuse a larger graph before building anything:
    // the generators would wrap ids, or allocate for billions of edges,
    // before `Graph::new` could assert. mesh2d's <n> is the side of n rows.
    let rows = if family == "mesh2d" { n } else { 1 };
    if n.checked_mul(rows).is_none_or(|v| v > u32::MAX as usize) {
        return Err(format!(
            "gen {family} {n} needs more than {} vertices (ids are u32)",
            u32::MAX
        ));
    }
    Ok(Box::new(move || cmd_gen(&family, n, seed, avg_deg, k)))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage_text());
        return;
    }
    let (msg, code) = match parse(args).map(|run| run()) {
        Ok(Ok(())) => return,
        Ok(Err(e)) => (format!("error: {e}"), 1),
        Err(Invalid::Bad(e)) => (format!("error: {e}"), 2),
        Err(Invalid::Usage) => (usage_text(), 2),
    };
    eprintln!("{msg}");
    std::process::exit(code);
}

/// Open the binary input for `--ooc` runs: no eager validation (the
/// driver endpoint-checks shard by shard, so no page is touched twice).
fn load_ooc(path: &str) -> Result<solver::MappedGraph, String> {
    if path == "-" {
        return Err("--ooc needs a seekable PGB binary file, not stdin".into());
    }
    if !parcc::graph::io::sniff_binary(path) {
        return Err(format!(
            "--ooc requires a PGB binary input; convert first: parcc convert {path} {path}.pgb"
        ));
    }
    open_binary(path)
}

fn cmd_labels(algo: &dyn ComponentSolver, path: &str, ooc: bool) -> Result<(), String> {
    let labels = if ooc {
        solver::solve_out_of_core(&load_ooc(path)?)?.labels
    } else {
        let (loaded, _) = load(path)?;
        algo.solve_store(loaded.store(), &SolveCtx::new()).labels
    };
    let mut out = std::io::BufWriter::new(std::io::stdout().lock());
    for (v, l) in labels.iter().enumerate() {
        writeln!(out, "{v} {l}").map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn cmd_stats(algo: &dyn ComponentSolver, path: &str, ooc: bool) -> Result<(), String> {
    if ooc {
        return cmd_stats_ooc(path);
    }
    let (loaded, load_wall) = load(path)?;
    let g = loaded.store();
    let report = algo.solve_store(g, &SolveCtx::new());
    let index = ComponentIndex::from_labels(report.labels);
    let mut sizes: Vec<usize> = index.sizes().to_vec();
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    println!("vertices:        {}", g.n());
    println!("edges:           {}", g.m());
    println!("shards:          {}", shard_summary(&loaded.shard_sizes()));
    println!("storage:         {}", storage_summary(&loaded));
    println!("threads:         {}", rayon::current_num_threads());
    println!("algorithm:       {}", algo.name());
    println!("components:      {}", index.count());
    println!("largest:         {:?}", &sizes[..sizes.len().min(5)]);
    if let Some(r) = report.rounds {
        println!("rounds:          {r}");
    }
    println!("simulated depth: {} PRAM steps", report.cost.depth);
    println!(
        "simulated work:  {} ops ({:.1} per edge+vertex)",
        report.cost.work,
        report.cost.work as f64 / (g.n() + g.m()).max(1) as f64
    );
    println!(
        "allocations:     {} heap allocs during solve",
        report.allocs
    );
    println!(
        "alloc peak:      {:.1} MiB live",
        report.peak_bytes as f64 / (1 << 20) as f64
    );
    for (key, value) in &report.notes {
        println!("{:<16} {value}", format!("{key}:"));
    }
    for p in &report.phases {
        println!(
            "{:<16} {} round(s), {} live edge(s), {:.1} ms, {} alloc(s)",
            format!("phase {}:", p.name),
            p.rounds,
            p.edges,
            p.wall.as_secs_f64() * 1e3,
            p.allocs
        );
    }
    println!("load time:       {:.1} ms", load_wall.as_secs_f64() * 1e3);
    println!("wall time:       {:.1} ms", report.wall.as_secs_f64() * 1e3);
    Ok(())
}

/// `stats --ooc`: the out-of-core telemetry view — same headline numbers,
/// plus the residency evidence that the working set stayed bounded.
fn cmd_stats_ooc(path: &str) -> Result<(), String> {
    let mg = load_ooc(path)?;
    let report = solver::solve_out_of_core(&mg)?;
    let index = ComponentIndex::from_labels(report.labels);
    let mut sizes: Vec<usize> = index.sizes().to_vec();
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    println!("vertices:        {}", mg.n());
    println!("edges:           {}", report.edges);
    println!("shards:          {}", shard_summary(&mg.shard_sizes()));
    println!(
        "storage:         binary (out-of-core stream, {:.1} MiB on disk)",
        report.file_bytes as f64 / f64::from(1 << 20)
    );
    println!("threads:         {}", rayon::current_num_threads());
    println!("algorithm:       union-find (out-of-core)");
    println!("components:      {}", index.count());
    println!("largest:         {:?}", &sizes[..sizes.len().min(5)]);
    match report.resident_peak {
        Some(peak) => println!(
            "resident peak:   {:.1} MiB of {:.1} MiB mapped",
            peak as f64 / f64::from(1 << 20),
            report.file_bytes as f64 / f64::from(1 << 20)
        ),
        None => println!("resident peak:   unmeasured (no mincore on this platform)"),
    }
    println!("wall time:       {:.1} ms", report.wall.as_secs_f64() * 1e3);
    Ok(())
}

/// `parcc convert [--verify] <in> <out.pgb>`: serialize any input to the
/// binary format; with `--verify`, re-open the output zero-copy and check
/// both the structure (shard-for-shard) and the solved partition.
fn cmd_convert(input: &str, output: &str, verify: bool) -> Result<(), String> {
    let (loaded, load_wall) = load(input)?;
    let store = loaded.store();
    let start = Instant::now();
    let bytes = save_binary(store, output).map_err(|e| format!("{output}: {e}"))?;
    let write_wall = start.elapsed();
    println!(
        "wrote {output}: {} vertices, {} edges, {} shards, {bytes} bytes ({:.2} B/edge)",
        store.n(),
        store.m(),
        store.shard_count(),
        bytes as f64 / store.m().max(1) as f64
    );
    println!(
        "load {:.1} ms, write {:.1} ms",
        load_wall.as_secs_f64() * 1e3,
        write_wall.as_secs_f64() * 1e3
    );
    if verify {
        let mapped = open_binary(output)?;
        mapped.validate().map_err(|e| format!("{output}: {e}"))?;
        if mapped.n() != store.n()
            || mapped.m() != store.m()
            || mapped.shard_count() != store.shard_count()
            || (0..store.shard_count()).any(|i| mapped.shard(i) != store.shard(i))
        {
            return Err(format!("{output}: round-trip structure mismatch"));
        }
        let original = solver::oracle_labels(&store.to_flat());
        let roundtrip = solver::oracle_labels(&mapped.to_flat());
        if !same_partition(&original, &roundtrip) {
            return Err(format!("{output}: round-trip partition mismatch"));
        }
        let components = ComponentIndex::from_labels(roundtrip).count();
        println!("verified: structure and partition match ({components} components)");
    }
    Ok(())
}

fn cmd_compare(path: &str, json: bool, baseline: Option<&str>, fail: bool) -> Result<(), String> {
    let (loaded, _) = load(path)?;
    let g = loaded.store();
    // Read the baseline before any solver runs: a file that is not one
    // compare output for this graph fails fast.
    let baseline = baseline
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
            let base = Baseline::parse(&text, g.n(), g.m()).map_err(|e| format!("{p}: {e}"))?;
            Ok::<_, String>((p, base))
        })
        .transpose()?;
    let rows = solver::compare_store(g, 0x5EED);
    if json {
        println!("{}", compare_json(g, &rows).document());
    } else {
        let mn = (g.n() + g.m()).max(1) as f64;
        println!(
            "comparing {} solvers on {} vertices / {} edges / {} shard(s) ({} threads)\n",
            rows.len(),
            g.n(),
            g.m(),
            g.shard_count(),
            rayon::current_num_threads()
        );
        println!(
            "{:<18} {:>10} {:>8} {:>10} {:>12} {:>10} {:>9}",
            "algorithm", "components", "rounds", "depth", "work/(m+n)", "wall ms", "verified"
        );
        for r in &rows {
            let tracked = |s: String| if r.caps.tracks_cost { s } else { "-".into() };
            let work_per = tracked(format!("{:.1}", r.cost.work as f64 / mn));
            let depth = tracked(r.cost.depth.to_string());
            println!(
                "{:<18} {:>10} {:>8} {:>10} {:>12} {:>10.1} {:>9}",
                r.name,
                r.components,
                r.rounds.map_or("-".into(), |x| x.to_string()),
                depth,
                work_per,
                r.wall.as_secs_f64() * 1e3,
                if r.verified { "ok" } else { "MISMATCH" }
            );
        }
    }
    // The `--baseline FILE` regression hook. Warn-only by default (exit
    // status unchanged) because wall clocks across machines are not
    // comparable; `--fail` opts fixed-hardware runners into a hard exit.
    if let Some((p, base)) = baseline {
        let mut warned = 0usize;
        for finding in base.review(&rows) {
            match finding {
                Finding::Missing(name) => eprintln!("note: {name} not in baseline {p}"),
                Finding::Regression(w) => {
                    warned += 1;
                    eprintln!("warning: {w}");
                }
            }
        }
        if warned > 0 {
            if fail {
                return Err(format!(
                    "--fail: {warned} regression warning(s) vs baseline {p}"
                ));
            }
            eprintln!("{warned} regression warning(s) vs baseline {p} (warn-only)");
        }
    }
    if rows.iter().all(|r| r.verified) {
        Ok(())
    } else {
        Err("at least one solver's partition disagrees with the union-find oracle".into())
    }
}

/// Report (on stderr) when a generator's structural minimum overrides the
/// requested size, instead of silently altering it.
fn clamp(what: &str, requested: usize, min: usize) -> usize {
    if requested < min {
        eprintln!("note: {what} requires n >= {min}; generating n={min} (requested {requested})");
    }
    requested.max(min)
}

fn cmd_gen(family: &str, n: usize, seed: u64, deg: Option<f64>, k: usize) -> Result<(), String> {
    if deg.is_some() && matches!(family, "cycle" | "path" | "mesh2d") {
        eprintln!("note: avg-deg is ignored for {family} (degree is structural)");
    }
    let avg_deg = deg.unwrap_or(8.0);
    // The row-parallel random families emit shards natively (the flat edge
    // vector never materializes); the structural families build flat and
    // get partitioned.
    let flat_build = |family: &str| -> Graph {
        match family {
            "cycle" => gen::cycle(clamp("cycle", n, 3)),
            "path" => gen::path(clamp("path", n, 2)),
            // mesh2d takes the grid SIDE as <n> (n = side^2): the
            // high-diameter regime where label propagation needs
            // Theta(side) rounds.
            "mesh2d" => {
                let side = clamp("mesh2d", n, 2);
                gen::grid2d(side, side, false)
            }
            "expander" => {
                let n = clamp("expander", n, 4);
                let mut d = (avg_deg.round() as usize).max(1);
                if d >= n {
                    eprintln!("note: expander degree {d} must be < n={n}; using {}", n - 1);
                    d = n - 1;
                }
                if n * d % 2 == 1 {
                    // Both n and d odd: no d-regular graph exists. d < n, so
                    // d+1 ≤ n-1 stays legal and makes n·d even.
                    eprintln!(
                        "note: no {d}-regular graph on odd n={n}; using degree {}",
                        d + 1
                    );
                    d += 1;
                }
                gen::random_regular(n, d, seed)
            }
            "gnp" => gen::gnp(n, (avg_deg / n.max(1) as f64).min(1.0), seed),
            "powerlaw" => gen::chung_lu(n, 2.5, avg_deg, seed),
            other => unreachable!("gen family '{other}' is checked at parse time"),
        }
    };
    let out = std::io::BufWriter::new(std::io::stdout().lock());
    if k == 0 {
        return write_edge_list(&flat_build(family), out).map_err(|e| e.to_string());
    }
    let sg = match family {
        "gnp" => gen::gnp_sharded(n, (avg_deg / n.max(1) as f64).min(1.0), seed, k),
        "powerlaw" => gen::chung_lu_sharded(n, 2.5, avg_deg, seed, k),
        "mesh2d" => {
            let side = clamp("mesh2d", n, 2);
            gen::grid2d_sharded(side, side, false, k)
        }
        _ => ShardedGraph::from_graph(&flat_build(family), k),
    };
    // Byte count is for programmatic callers (convert, benches); gen's
    // contract is a clean edge list on stdout and nothing on stderr.
    write_edge_list_sharded(&sg, out)
        .map(|_| ())
        .map_err(|e| e.to_string())
}

/// `parcc serve [file]`: open the session (preload, then WAL replay),
/// report what the WAL recovered on stderr, and run the line protocol on
/// stdin/stdout.
fn cmd_serve(preload: Option<&str>, wal: Option<(String, SyncPolicy)>) -> Result<(), String> {
    let mut session = {
        let loaded = preload.map(load).transpose()?;
        Session::open(
            loaded.as_ref().map(|(l, _)| l.store()),
            wal.as_ref().map(|(path, sync)| (Path::new(path), *sync)),
        )?
    };
    if let Some(summary) = session.wal_summary() {
        eprintln!("{summary}");
    }
    session.run(std::io::stdin().lock(), std::io::stdout().lock())
}
