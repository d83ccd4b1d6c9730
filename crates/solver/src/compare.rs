//! The registry-wide comparison behind `parcc compare`, and its JSON.
//!
//! [`compare_store`] runs every registered solver on one graph and checks
//! each labeling against the union-find oracle. [`compare_json`] renders
//! the rows as the `compare --json` document and [`Baseline`] reads one
//! back, by key, for `compare --baseline`.
//!
//! [`Json`] is the one JSON value type of the workspace. Its
//! [`Json::document`] layout is shared by `compare --json` and E21's
//! `PARCC_E21_JSON` body: top-level keys one per line, an array under
//! such a key one element per line, everything deeper inline, with
//! `": "` and `", "` separators. CI scripts and `grep '"all_verified": true'` read that
//! layout, so it stays fixed. [`Json::parse`] accepts any JSON text, so
//! a re-indented document reads back the same.

use crate::{oracle_labels, partition_ok, REGISTRY};
use parcc_graph::solver::{PhaseStat, SolveCtx, SolverCaps};
use parcc_graph::store::GraphStore;
use parcc_graph::Graph;
use parcc_pram::cost::Cost;
use std::time::Duration;

/// One solver's outcome in a [`compare`] run.
#[derive(Debug, Clone)]
pub struct CompareRow {
    /// Registry name.
    pub name: &'static str,
    /// Capability flags.
    pub caps: SolverCaps,
    /// Distinct components reported.
    pub components: usize,
    /// Rounds, for solvers with a round structure.
    pub rounds: Option<u64>,
    /// Simulated PRAM cost (zero when the solver doesn't track cost).
    pub cost: Cost,
    /// Wall-clock solve time.
    pub wall: Duration,
    /// Heap allocations during the solve (zero when the binary has no
    /// counting-allocator hook — see `parcc_pram::alloc_track`).
    pub allocs: u64,
    /// High-water live heap bytes during the solve (same hook).
    pub peak_bytes: u64,
    /// Did the labeling match the union-find oracle's partition?
    pub verified: bool,
    /// Solver-specific telemetry.
    pub notes: Vec<(&'static str, String)>,
    /// Per-phase breakdown (`hybrid`'s two passes, `ltz` per round; empty
    /// otherwise).
    pub phases: Vec<PhaseStat>,
}

/// Run every registered solver on `g` with a fresh seeded context each,
/// verifying every labeling against the union-find oracle.
#[must_use]
pub fn compare(g: &Graph, seed: u64) -> Vec<CompareRow> {
    compare_store(g, seed)
}

/// [`compare`] over any [`GraphStore`] backend: every registered solver
/// runs through its shard-aware entry (`solve_store`), so sharded inputs
/// exercise the native `paper`/`ltz` chunk paths while the rest go through
/// the default flatten adapter. The oracle is computed once on the
/// flattened graph (free for the flat backend).
#[must_use]
pub fn compare_store(store: &dyn GraphStore, seed: u64) -> Vec<CompareRow> {
    // Scope the flattened copy to the oracle computation: on a sharded
    // store it is an owned m-edge merge, and keeping it alive across the
    // registry loop would double peak memory for the whole run.
    let oracle = {
        let flat = store.to_flat();
        oracle_labels(&flat)
    };
    REGISTRY
        .iter()
        .map(|s| {
            let ctx = SolveCtx::with_seed(seed);
            let report = s.solve_store(store, &ctx);
            CompareRow {
                name: s.name(),
                caps: s.caps(),
                components: report.component_count(),
                rounds: report.rounds,
                cost: report.cost,
                wall: report.wall,
                allocs: report.allocs,
                peak_bytes: report.peak_bytes,
                verified: partition_ok(store.n(), &oracle, &report.labels),
                notes: report.notes,
                phases: report.phases,
            }
        })
        .collect()
}

fn ms(d: Duration) -> Json {
    Json::Num(d.as_secs_f64() * 1e3)
}

impl CompareRow {
    /// This row as one `solvers` entry; `mn` is the graph's `n + m`
    /// (at least 1), the denominator of `work_per_mn`.
    fn to_json(&self, mn: f64) -> Json {
        let notes = self.notes.iter().map(|(k, v)| (*k, Json::Str(v.clone())));
        let phases = self.phases.iter().map(|p| {
            Json::obj([
                ("phase", Json::Str(p.name.into())),
                ("phase_rounds", Json::Int(p.rounds)),
                ("phase_edges", Json::Int(p.edges)),
                ("phase_wall_ms", ms(p.wall)),
                ("phase_allocs", Json::Int(p.allocs)),
            ])
        });
        Json::obj([
            ("name", Json::Str(self.name.into())),
            ("components", Json::Int(self.components as u64)),
            ("verified", Json::Bool(self.verified)),
            ("rounds", self.rounds.map_or(Json::Null, Json::Int)),
            ("depth", Json::Int(self.cost.depth)),
            ("work", Json::Int(self.cost.work)),
            ("work_per_mn", Json::Num(self.cost.work as f64 / mn)),
            ("wall_ms", ms(self.wall)),
            ("allocs", Json::Int(self.allocs)),
            ("peak_bytes", Json::Int(self.peak_bytes)),
            ("deterministic", Json::Bool(self.caps.deterministic)),
            ("seeded", Json::Bool(self.caps.seeded)),
            ("parallel", Json::Bool(self.caps.parallel)),
            ("notes", Json::obj(notes)),
            ("phases", Json::Arr(phases.collect())),
        ])
    }
}

/// The `compare --json` document for `rows`, a [`compare_store`] run on
/// `store` in the current thread pool.
#[must_use]
pub fn compare_json(store: &dyn GraphStore, rows: &[CompareRow]) -> Json {
    let mn = (store.n() + store.m()).max(1) as f64;
    Json::obj([
        ("vertices", Json::Int(store.n() as u64)),
        ("edges", Json::Int(store.m() as u64)),
        ("shards", Json::Int(store.shard_count() as u64)),
        ("threads", Json::Int(rayon::current_num_threads() as u64)),
        ("all_verified", Json::Bool(rows.iter().all(|r| r.verified))),
        (
            "solvers",
            Json::Arr(rows.iter().map(|r| r.to_json(mn)).collect()),
        ),
    ])
}

/// Wall past this multiple of the baseline's is a regression ...
const WALL_GATE: f64 = 1.25;
/// ... when it is also this many milliseconds slower: sub-millisecond
/// jitter on tiny graphs is not a regression.
const WALL_FLOOR_MS: f64 = 0.05;
/// Simulated depth past this multiple of the baseline's is a regression.
const DEPTH_GATE: f64 = 1.05;

/// A stored `compare --json` document, read back for `compare --baseline`.
#[derive(Debug)]
pub struct Baseline {
    /// `(name, wall_ms, depth)` per solver entry, document order.
    solvers: Vec<(String, f64, f64)>,
}

/// One line of a [`Baseline::review`].
#[derive(Debug, PartialEq)]
pub enum Finding {
    /// A registered solver the baseline has no entry for.
    Missing(&'static str),
    /// A solver's wall or depth past its gate, described.
    Regression(String),
}

impl Baseline {
    /// Read `text` as one `compare --json` output for a graph of `n`
    /// vertices and `m` edges.
    ///
    /// # Errors
    /// When `text` is not JSON, is not a single compare output (CI's
    /// `BENCH_compare.json` holds several runs under their own keys),
    /// has a solver entry without `name`/`wall_ms`/`depth`, or was
    /// recorded on a graph of another size.
    pub fn parse(text: &str, n: usize, m: usize) -> Result<Self, String> {
        let doc = Json::parse(text)?;
        let count = |key| doc.get(key).and_then(Json::as_f64);
        let (Some(bn), Some(bm), Some(Json::Arr(entries))) =
            (count("vertices"), count("edges"), doc.get("solvers"))
        else {
            return Err(
                "not one `parcc compare --json` output (no top-level vertices, \
                        edges and solvers)"
                    .into(),
            );
        };
        if (bn, bm) != (n as f64, m as f64) {
            return Err(format!(
                "baseline graph has {bn} vertices and {bm} edges, the input has {n} and {m}"
            ));
        }
        let solvers = entries
            .iter()
            .map(|s| {
                let num = |key| s.get(key).and_then(Json::as_f64);
                match (s.get("name"), num("wall_ms"), num("depth")) {
                    (Some(Json::Str(name)), Some(wall), Some(depth)) => {
                        Ok((name.clone(), wall, depth))
                    }
                    _ => Err(format!(
                        "solver entry without name, wall_ms and depth: {s:?}"
                    )),
                }
            })
            .collect::<Result<Vec<_>, String>>()?;
        if solvers.is_empty() {
            return Err("no solver entries".into());
        }
        Ok(Self { solvers })
    }

    /// Diff each row against its baseline entry: a wall past
    /// [`WALL_GATE`]× (and [`WALL_FLOOR_MS`] slower), or a tracked depth
    /// past [`DEPTH_GATE`]×, is a [`Finding::Regression`].
    #[must_use]
    pub fn review(&self, rows: &[CompareRow]) -> Vec<Finding> {
        let mut findings = Vec::new();
        for r in rows {
            let Some((_, base_wall, base_depth)) = self.solvers.iter().find(|s| s.0 == r.name)
            else {
                findings.push(Finding::Missing(r.name));
                continue;
            };
            let wall = r.wall.as_secs_f64() * 1e3;
            if wall > base_wall * WALL_GATE && wall - base_wall > WALL_FLOOR_MS {
                findings.push(Finding::Regression(format!(
                    "{}: wall {wall:.3} ms vs baseline {base_wall:.3} ms (+{:.0}%)",
                    r.name,
                    (wall / base_wall.max(1e-9) - 1.0) * 100.0
                )));
            }
            let depth = r.cost.depth as f64;
            if r.caps.tracks_cost && *base_depth > 0.0 && depth > base_depth * DEPTH_GATE {
                findings.push(Finding::Regression(format!(
                    "{}: depth {depth:.0} vs baseline {base_depth:.0}",
                    r.name
                )));
            }
        }
        findings
    }
}

/// A JSON value. Objects keep their key order: it is part of the layout.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A non-negative integer, written exactly.
    Int(u64),
    /// Any other number, written with three decimals (`null` if not
    /// finite).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(Vec<(String, Json)>),
}

/// Nesting bound for [`Json::parse`]: a hostile file cannot overflow the
/// stack.
const MAX_DEPTH: usize = 64;

impl Json {
    /// An object from `(key, value)` pairs, in order.
    pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Self {
        Self::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// The value under `key`, if this is an object that has it.
    fn get(&self, key: &str) -> Option<&Json> {
        let Self::Obj(fields) = self else { return None };
        fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// A number's value.
    fn as_f64(&self) -> Option<f64> {
        match *self {
            Self::Int(i) => Some(i as f64),
            Self::Num(x) => Some(x),
            _ => None,
        }
    }

    /// The document layout: a top-level object's keys one per line at two
    /// spaces, a non-empty array under such a key one element per line at
    /// four, everything deeper inline. No trailing newline.
    #[must_use]
    pub fn document(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    /// Write at nesting `level`: objects lay out one key per line at level
    /// 0, arrays one element per line at level 1, all else is inline.
    fn write(&self, out: &mut String, level: usize) {
        match self {
            Self::Null => out.push_str("null"),
            Self::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Self::Int(i) => out.push_str(&i.to_string()),
            Self::Num(x) if x.is_finite() => out.push_str(&format!("{x:.3}")),
            Self::Num(_) => out.push_str("null"),
            Self::Str(s) => write_str(s, out),
            Self::Arr(items) => {
                let indent = (level == 1 && !items.is_empty()).then_some("\n    ");
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    push_sep(out, i, indent);
                    item.write(out, level + 1);
                }
                out.push_str(if indent.is_some() { "\n  ]" } else { "]" });
            }
            Self::Obj(fields) => {
                let indent = (level == 0 && !fields.is_empty()).then_some("\n  ");
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    push_sep(out, i, indent);
                    write_str(key, out);
                    out.push_str(": ");
                    value.write(out, level + 1);
                }
                out.push_str(if indent.is_some() { "\n}" } else { "}" });
            }
        }
    }

    /// Parse one JSON text. Integers that fit a `u64` read as
    /// [`Json::Int`], every other number as [`Json::Num`].
    ///
    /// # Errors
    /// Names the first syntax error and its byte offset.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut p = Parser {
            b: text.as_bytes(),
            at: 0,
        };
        let value = p.value(0)?;
        p.ws();
        if p.at < p.b.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(value)
    }
}

/// The separator before item `i`: `", "` inline, or `","` and a line
/// break with `indent` when laying out one item per line.
fn push_sep(out: &mut String, i: usize, indent: Option<&str>) {
    if i > 0 {
        out.push(',');
    }
    match indent {
        Some(indent) => out.push_str(indent),
        None if i > 0 => out.push(' '),
        None => {}
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Recursive-descent reader: a cursor into the text's bytes.
struct Parser<'a> {
    b: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("invalid JSON: {what} at byte {}", self.at)
    }

    fn ws(&mut self) {
        while self.b.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    /// Skip whitespace, then consume `c` if it comes next.
    fn eat(&mut self, c: u8) -> bool {
        self.ws();
        let hit = self.b.get(self.at) == Some(&c);
        self.at += usize::from(hit);
        hit
    }

    /// Items up to `close`, comma-separated; the opening byte is eaten.
    fn items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        if self.eat(close) {
            return Ok(());
        }
        loop {
            item(self)?;
            if self.eat(close) {
                return Ok(());
            }
            if !self.eat(b',') {
                return Err(self.err(&format!("expected ',' or '{}'", close as char)));
            }
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        if self.eat(b'{') {
            let mut fields = Vec::new();
            self.items(b'}', |p| {
                let key = p.string()?;
                if !p.eat(b':') {
                    return Err(p.err("expected ':'"));
                }
                fields.push((key, p.value(depth + 1)?));
                Ok(())
            })?;
            return Ok(Json::Obj(fields));
        }
        if self.eat(b'[') {
            let mut items = Vec::new();
            self.items(b']', |p| {
                items.push(p.value(depth + 1)?);
                Ok(())
            })?;
            return Ok(Json::Arr(items));
        }
        if self.b.get(self.at) == Some(&b'"') {
            return self.string().map(Json::Str);
        }
        for (word, v) in [
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
            ("null", Json::Null),
        ] {
            if self.b[self.at..].starts_with(word.as_bytes()) {
                self.at += word.len();
                return Ok(v);
            }
        }
        let start = self.at;
        while self
            .b
            .get(self.at)
            .is_some_and(|c| b"+-.0123456789eE".contains(c))
        {
            self.at += 1;
        }
        let s = std::str::from_utf8(&self.b[start..self.at]).unwrap_or_default();
        if let Ok(i) = s.parse() {
            return Ok(Json::Int(i));
        }
        s.parse().map(Json::Num).map_err(|_| {
            self.at = start;
            self.err("expected a value")
        })
    }

    /// Four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self.b.get(self.at..self.at + 4).unwrap_or_default();
        let code = std::str::from_utf8(digits)
            .ok()
            .filter(|d| d.bytes().all(|c| c.is_ascii_hexdigit()))
            .and_then(|d| u32::from_str_radix(d, 16).ok())
            .ok_or_else(|| self.err("bad \\u escape"))?;
        self.at += 4;
        Ok(code)
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat(b'"') {
            return Err(self.err("expected a string"));
        }
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, escape or control byte:
            // all ASCII, so the run ends on a UTF-8 boundary.
            let run = self.b[self.at..]
                .iter()
                .position(|&c| c == b'"' || c == b'\\' || c < 0x20);
            let end = self.at + run.ok_or_else(|| self.err("unterminated string"))?;
            out.push_str(
                std::str::from_utf8(&self.b[self.at..end]).map_err(|_| self.err("bad UTF-8"))?,
            );
            self.at = end + 1;
            match self.b[end] {
                b'"' => return Ok(out),
                b'\\' => {}
                _ => return Err(self.err("control character in string")),
            }
            let esc = self.b.get(self.at).copied();
            self.at += 1;
            out.push(match esc {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => {
                    let mut code = self.hex4()?;
                    // A surrogate pair spells one char past U+FFFF; a lone
                    // surrogate reads as U+FFFD.
                    if (0xD800..0xDC00).contains(&code) && self.b[self.at..].starts_with(b"\\u") {
                        let high_end = self.at;
                        self.at += 2;
                        match self.hex4()? {
                            low @ 0xDC00..0xE000 => {
                                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            }
                            _ => self.at = high_end,
                        }
                    }
                    char::from_u32(code).unwrap_or('\u{FFFD}')
                }
                _ => return Err(self.err("bad escape")),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcc_graph::generators as gen;

    #[test]
    fn compare_verifies_every_solver() {
        let g = gen::mixture(4);
        for row in compare(&g, 5) {
            assert!(row.verified, "{} failed verification", row.name);
            assert!(row.components >= 1);
        }
    }

    #[test]
    fn compare_handles_the_empty_graph() {
        let g = Graph::new(0, vec![]);
        for row in compare(&g, 1) {
            assert!(row.verified, "{} failed on empty graph", row.name);
            assert_eq!(row.components, 0);
        }
    }

    #[test]
    fn compare_store_verifies_every_solver_on_sharded_input() {
        let g = gen::mixture(6);
        let sg = parcc_graph::store::ShardedGraph::from_graph(&g, 4);
        let rows = compare_store(&sg, 5);
        assert_eq!(rows.len(), crate::registry().len());
        let flat_rows = compare(&g, 5);
        for (row, flat) in rows.iter().zip(&flat_rows) {
            assert!(row.verified, "{} failed on sharded input", row.name);
            assert_eq!(row.components, flat.components, "{}", row.name);
        }
        // The native paths record the shard count they consumed.
        for name in ["paper", "ltz"] {
            let row = rows.iter().find(|r| r.name == name).unwrap();
            assert!(
                row.notes
                    .iter()
                    .any(|(k, v)| *k == "store_shards" && v == "4"),
                "{name} should note store_shards, got {:?}",
                row.notes
            );
        }
    }

    #[test]
    fn document_layout_is_one_key_and_one_row_per_line() {
        let doc = Json::obj([
            ("workload", Json::Str("a \"b\"\n".into())),
            (
                "rows",
                Json::Arr(vec![
                    Json::obj([("wal", Json::Str("none".into())), ("ms", Json::Num(1.5))]),
                    Json::obj([("notes", Json::obj([])), ("phases", Json::Arr(vec![]))]),
                ]),
            ),
            ("none", Json::Arr(vec![])),
        ]);
        assert_eq!(
            doc.document(),
            "{\n  \"workload\": \"a \\\"b\\\"\\n\",\n  \"rows\": [\n    \
             {\"wal\": \"none\", \"ms\": 1.500},\n    \
             {\"notes\": {}, \"phases\": []}\n  ],\n  \"none\": []\n}"
        );
        assert_eq!(
            Json::parse(&doc.document()).unwrap().get("none"),
            Some(&Json::Arr(vec![]))
        );
    }

    #[test]
    fn parse_reads_what_document_writes_in_any_layout() {
        let doc = Json::obj([
            ("n", Json::Int(u64::MAX)),
            ("x", Json::Num(-0.25)),
            ("s", Json::Str("tab\t\u{1} é \\".into())),
            ("r", Json::Null),
            ("b", Json::Arr(vec![Json::Bool(true), Json::Bool(false)])),
        ]);
        let text = doc.document();
        assert_eq!(Json::parse(&text).unwrap(), doc);
        let flat: String = text.lines().map(str::trim).collect();
        assert_eq!(Json::parse(&flat).unwrap(), doc);
        assert_eq!(
            Json::parse("\"\\u00e9\\ud83d\\ude00\\/\"").unwrap(),
            Json::Str("é😀/".into())
        );
        assert_eq!(
            Json::parse("\"\\ud83d\\u0041\"").unwrap(),
            Json::Str("\u{FFFD}A".into())
        );
        assert_eq!(Json::parse(" 1e3 ").unwrap(), Json::Num(1000.0));
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "[1] x",
            "\"\\q\"",
            "tru",
            "\"a\nb\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(Json::parse(&deep).unwrap_err().contains("too deep"));
    }

    #[test]
    fn baseline_reads_compare_json_by_key() {
        let g = gen::cycle(40);
        let rows = compare(&g, 3);
        let text = compare_json(&g, &rows).document();
        let base = Baseline::parse(&text, 40, 40).unwrap();
        let names: Vec<&str> = base.solvers.iter().map(|s| s.0.as_str()).collect();
        assert_eq!(names, crate::names());

        let err = Baseline::parse(&text, 41, 40).unwrap_err();
        assert!(err.contains("40 vertices"), "{err}");
        let runs = format!("{{\"a_t1\": {text}, \"a_t4\": {text}}}");
        assert!(Baseline::parse(&runs, 40, 40)
            .unwrap_err()
            .contains("not one"));
    }

    #[test]
    fn review_applies_the_wall_and_depth_gates() {
        let base = Baseline {
            solvers: vec![("paper".into(), 1.0, 100.0)],
        };
        let mut row = compare(&gen::cycle(8), 1)[0].clone();
        assert_eq!(row.name, "paper");
        row.wall = Duration::from_micros(1200);
        row.cost.depth = 105;
        assert!(base.review(&[row.clone()]).is_empty(), "inside both gates");
        row.wall = Duration::from_micros(1300);
        row.cost.depth = 106;
        let found = base.review(&[row.clone()]);
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(matches!(&found[0], Finding::Regression(w) if w.contains("wall")));
        assert!(matches!(&found[1], Finding::Regression(w) if w.contains("depth")));
        row.name = "ltz";
        assert_eq!(base.review(&[row]), vec![Finding::Missing("ltz")]);
    }
}
