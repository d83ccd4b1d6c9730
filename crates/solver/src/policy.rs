//! The refittable dispatch policy: every adaptive-execution constant in one
//! loadable, refittable place (ROADMAP "autotuning v2").
//!
//! Six keys: `hybrid`'s contraction-rate phase switch (`switch_shrink`,
//! `min_sweeps`, `max_sweeps`) and the radix sort's tuning
//! (`sort_digit_bits`, `sort_min_chunk`, `sort_wc`). A [`Policy`] value
//! has three sources, in precedence order:
//!
//! 1. `parcc --policy FILE` — the CLI loads the file and installs it
//!    process-wide via [`set_active`];
//! 2. the `PARCC_POLICY` environment variable (same file format);
//! 3. compiled-in defaults ([`Policy::default`]), identical to the
//!    constants they replaced.
//!
//! The file format is the workspace's usual hand-rolled line protocol:
//! `key = value` pairs, `#` comments, unknown keys rejected (a typo'd
//! threshold silently falling back to a default would be worse than an
//! error). [`Policy::to_file_string`] round-trips through [`Policy::parse`]
//! so `parcc tune` can emit files byte-deterministically.
//!
//! [`refit`] closes the loop: it ingests groups of per-solver measurements
//! (one group per `compare --json` run) and nudges the thresholds toward
//! whatever won on the observed hardware — a deliberately simple, fully
//! deterministic update rule, not a learned model.

use std::sync::{OnceLock, RwLock};

/// Every tunable `hybrid` and the radix sort consult. `Copy` so the active policy
/// can be read once per solve without locking games.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Policy {
    /// `hybrid`: keep sweeping while the live-component count shrinks by at
    /// least this fraction per round; below it, contract and solve the kernel.
    pub switch_shrink: f64,
    /// `hybrid`: sweeps always granted before the shrink gate applies (the
    /// first round's shrink is huge and uninformative on most inputs).
    pub min_sweeps: u64,
    /// `hybrid`: hard sweep cap — switch regardless of the observed rate.
    pub max_sweeps: u64,
    /// Radix sort: digit-width cap in bits (`8..=16`); installed into
    /// `parcc_pram::sort` when the policy activates.
    pub sort_digit_bits: u32,
    /// Radix sort: smallest per-chunk slice worth a dedicated histogram
    /// pass (≥ 1024).
    pub sort_min_chunk: u64,
    /// Radix sort: whether wide scatters stage through write-combining
    /// lines.
    pub sort_wc: bool,
}

impl Default for Policy {
    fn default() -> Self {
        Policy {
            switch_shrink: 0.25,
            min_sweeps: 2,
            max_sweeps: 64,
            sort_digit_bits: defaults_sort().max_digit_bits,
            sort_min_chunk: defaults_sort().min_chunk as u64,
            sort_wc: defaults_sort().write_combine,
        }
    }
}

fn defaults_sort() -> parcc_pram::sort::SortTuning {
    parcc_pram::sort::SortTuning::default()
}

impl Policy {
    /// Parse the `key = value` file format. Starts from defaults; every
    /// line overrides one field. Unknown keys and malformed values are
    /// errors.
    pub fn parse(text: &str) -> Result<Policy, String> {
        let mut p = Policy::default();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .map(|(k, v)| (k.trim(), v.trim()))
                .ok_or_else(|| format!("policy line {}: expected `key = value`", idx + 1))?;
            let bad = |what: &str| format!("policy line {}: bad {what} `{value}`", idx + 1);
            match key {
                "switch_shrink" => {
                    p.switch_shrink = value.parse().map_err(|_| bad("fraction"))?;
                }
                "min_sweeps" => p.min_sweeps = value.parse().map_err(|_| bad("count"))?,
                "max_sweeps" => p.max_sweeps = value.parse().map_err(|_| bad("count"))?,
                "sort_digit_bits" => {
                    p.sort_digit_bits = value.parse().map_err(|_| bad("bits"))?;
                }
                "sort_min_chunk" => p.sort_min_chunk = value.parse().map_err(|_| bad("count"))?,
                "sort_wc" => p.sort_wc = value.parse().map_err(|_| bad("bool (true|false)"))?,
                _ => return Err(format!("policy line {}: unknown key `{key}`", idx + 1)),
            }
        }
        p.validate()?;
        Ok(p)
    }

    fn validate(&self) -> Result<(), String> {
        if !(0.0..1.0).contains(&self.switch_shrink) {
            return Err(format!(
                "switch_shrink {} outside [0, 1)",
                self.switch_shrink
            ));
        }
        if self.min_sweeps == 0 || self.max_sweeps < self.min_sweeps {
            return Err(format!(
                "sweep bounds invalid: min {} max {}",
                self.min_sweeps, self.max_sweeps
            ));
        }
        if !(8..=16).contains(&self.sort_digit_bits) {
            return Err(format!(
                "sort_digit_bits {} outside 8..=16",
                self.sort_digit_bits
            ));
        }
        if self.sort_min_chunk < 1024 {
            return Err(format!("sort_min_chunk {} below 1024", self.sort_min_chunk));
        }
        Ok(())
    }

    /// The radix-sort tuning this policy carries.
    #[must_use]
    pub fn sort_tuning(&self) -> parcc_pram::sort::SortTuning {
        parcc_pram::sort::SortTuning {
            max_digit_bits: self.sort_digit_bits,
            min_chunk: self.sort_min_chunk as usize,
            write_combine: self.sort_wc,
        }
    }

    /// Serialize in the exact shape [`Policy::parse`] reads — one key per
    /// line, sorted order, so emitted files are byte-deterministic.
    #[must_use]
    pub fn to_file_string(&self) -> String {
        format!(
            "# parcc dispatch policy (load with --policy FILE or PARCC_POLICY)\n\
             max_sweeps = {}\n\
             min_sweeps = {}\n\
             sort_digit_bits = {}\n\
             sort_min_chunk = {}\n\
             sort_wc = {}\n\
             switch_shrink = {}\n",
            self.max_sweeps,
            self.min_sweeps,
            self.sort_digit_bits,
            self.sort_min_chunk,
            self.sort_wc,
            self.switch_shrink,
        )
    }

    /// Load and parse a policy file.
    pub fn load(path: &std::path::Path) -> Result<Policy, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read policy {}: {e}", path.display()))?;
        Policy::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Explicitly installed policy (`--policy FILE`); beats the environment.
static ACTIVE: RwLock<Option<Policy>> = RwLock::new(None);
/// Lazily resolved `PARCC_POLICY` fallback, loaded at most once.
static FROM_ENV: OnceLock<Policy> = OnceLock::new();

/// Install a policy process-wide (the CLI's `--policy` path). The sort
/// tuning it carries is pushed down into `parcc_pram::sort` so every
/// radix call in the process sees the refitted knobs.
pub fn set_active(p: Policy) {
    parcc_pram::sort::set_tuning(Some(p.sort_tuning()));
    *ACTIVE.write().unwrap() = Some(p);
}

/// The policy `hybrid` consults: explicit [`set_active`] value,
/// else `PARCC_POLICY` (loaded once; a broken file is a loud error — a
/// silently ignored tuning file would be worse), else defaults.
#[must_use]
pub fn active() -> Policy {
    if let Some(p) = *ACTIVE.read().unwrap() {
        return p;
    }
    *FROM_ENV.get_or_init(|| match std::env::var("PARCC_POLICY") {
        Ok(path) => {
            let p = Policy::load(std::path::Path::new(&path))
                .unwrap_or_else(|e| panic!("PARCC_POLICY: {e}"));
            parcc_pram::sort::set_tuning(Some(p.sort_tuning()));
            p
        }
        Err(_) => Policy::default(),
    })
}

/// One solver's measurements from one `compare --json` run.
#[derive(Debug, Clone, Default)]
pub struct TuneObservation {
    /// Registry solver name.
    pub solver: String,
    /// Wall time in milliseconds.
    pub wall_ms: f64,
    /// Rounds of `hybrid`'s sweep phase (absent for other solvers).
    pub sweep_rounds: Option<u64>,
}

/// Refit the policy from groups of observations (one group per stored
/// `compare --json` run, i.e. per input graph). The update rule is
/// deliberately boring and deterministic:
///
/// * **`switch_shrink`** — nudged 0.05 down for every run where `hybrid`
///   lost to `label-prop` (it switched too early: cheap sweeps were still
///   winning) and 0.05 up for every run where it lost to `paper` (it swept
///   too long), clamped to `[0.05, 0.60]`.
/// * **`max_sweeps`** — twice the longest sweep phase any winning `hybrid`
///   run needed, clamped to `[8, 512]`.
#[must_use]
pub fn refit(groups: &[Vec<TuneObservation>]) -> Policy {
    let mut p = Policy::default();
    let mut shrink = p.switch_shrink;
    let mut longest_winning_sweep = 0u64;
    for g in groups {
        let find = |name: &str| g.iter().find(|o| o.solver == name);
        let (Some(lp), Some(paper), Some(hy)) = (find("label-prop"), find("paper"), find("hybrid"))
        else {
            continue;
        };
        if hy.wall_ms > lp.wall_ms {
            shrink -= 0.05; // switched too early; let sweeps run longer
        } else if hy.wall_ms > paper.wall_ms {
            shrink += 0.05; // swept too long; hand over sooner
        } else if let Some(r) = hy.sweep_rounds {
            longest_winning_sweep = longest_winning_sweep.max(r);
        }
    }
    p.switch_shrink = shrink.clamp(0.05, 0.60);
    if longest_winning_sweep > 0 {
        p.max_sweeps = (longest_winning_sweep * 2).clamp(8, 512);
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_round_trip_through_the_file_format() {
        let p = Policy::default();
        assert_eq!(Policy::parse(&p.to_file_string()).unwrap(), p);
    }

    #[test]
    fn parse_overrides_and_comments() {
        let p = Policy::parse("# tuned\nswitch_shrink = 0.4  # comment\nmax_sweeps = 9\n").unwrap();
        assert_eq!(p.switch_shrink, 0.4);
        assert_eq!(p.max_sweeps, 9);
        assert_eq!(p.min_sweeps, Policy::default().min_sweeps);
    }

    #[test]
    fn parse_rejects_unknown_keys_and_bad_values() {
        assert!(Policy::parse("swich_shrink = 0.4\n").is_err());
        assert!(Policy::parse("switch_shrink = fast\n").is_err());
        assert!(Policy::parse("switch_shrink = 1.5\n").is_err());
        assert!(Policy::parse("min_sweeps = 0\n").is_err());
        assert!(Policy::parse("just words\n").is_err());
        assert!(Policy::parse("sort_digit_bits = 20\n").is_err());
        assert!(Policy::parse("sort_min_chunk = 10\n").is_err());
        assert!(Policy::parse("sort_wc = maybe\n").is_err());
        // A stale tuned file carrying a retired key fails loudly rather
        // than being silently half-applied.
        assert!(Policy::parse("dense_avg_deg = 4\n").is_err());
        assert!(Policy::parse("delegate = paper\n").is_err());
    }

    #[test]
    fn parse_carries_sort_tuning() {
        let p = Policy::parse("sort_digit_bits = 11\nsort_min_chunk = 65536\nsort_wc = false\n")
            .unwrap();
        let t = p.sort_tuning();
        assert_eq!(
            (t.max_digit_bits, t.min_chunk, t.write_combine),
            (11, 65536, false)
        );
    }

    #[test]
    fn refit_nudges_switch_shrink_by_hybrid_losses() {
        let group = |lp_ms: f64, paper_ms: f64, hy_ms: f64| {
            vec![
                TuneObservation {
                    solver: "label-prop".into(),
                    wall_ms: lp_ms,
                    sweep_rounds: None,
                },
                TuneObservation {
                    solver: "paper".into(),
                    wall_ms: paper_ms,
                    sweep_rounds: None,
                },
                TuneObservation {
                    solver: "hybrid".into(),
                    wall_ms: hy_ms,
                    sweep_rounds: Some(6),
                },
            ]
        };
        // hybrid lost to label-prop → sweep longer (lower threshold).
        let early = refit(&[group(2.0, 3.0, 4.0)]);
        assert!(early.switch_shrink < Policy::default().switch_shrink);
        // hybrid lost only to paper → switch sooner (higher threshold).
        let late = refit(&[group(3.0, 2.0, 2.5)]);
        assert!(late.switch_shrink > Policy::default().switch_shrink);
        // hybrid won → thresholds stand, max_sweeps refits off its phase.
        let won = refit(&[group(2.0, 3.0, 1.0)]);
        assert_eq!(won.switch_shrink, Policy::default().switch_shrink);
        assert_eq!(won.max_sweeps, 12);
    }

    #[test]
    fn set_active_overrides_defaults_and_installs_sort_tuning() {
        // Only this test touches the globals; others go through parse/refit.
        let p = Policy {
            max_sweeps: 7,
            sort_digit_bits: 11,
            sort_wc: false,
            ..Policy::default()
        };
        set_active(p);
        assert_eq!(active().max_sweeps, 7);
        let t = parcc_pram::sort::tuning();
        assert_eq!((t.max_digit_bits, t.write_combine), (11, false));
        set_active(Policy::default());
        assert_eq!(
            parcc_pram::sort::tuning(),
            parcc_pram::sort::SortTuning::default()
        );
    }
}
