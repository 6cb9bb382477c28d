//! Shared command-line plumbing for the harness binaries.
//!
//! Every `trace-dump` subcommand and table bin used to carry its own
//! copy of the same boilerplate: the workload-name lookup, the
//! `--mode/--k/--threads/--ops/--contention` flag loop, trace-file
//! loading, and the write-canonical-JSON-and-announce dance. This
//! module is the single copy. Error message shapes are part of the
//! contract — `"<cmd>: <flag> needs <what>"`, `"<flag>: <parse error>"`
//! — so scripts grepping stderr keep working across bins.

use atomic_lock_inference::replay::RunConfig;
use interp::{ExecMode, WeakenPlan};
use workloads::{micro, stamp, Contention, RunSpec};

/// Every workload name the binaries accept, for usage strings.
pub const WORKLOADS: &str = "list hashtable hashtable2 rbtree th scale genome vacation kmeans";

/// Resolves a workload name to its [`RunSpec`] at `ops` operations per
/// thread under contention mix `c`.
pub fn workload(name: &str, ops: i64, c: Contention) -> Option<RunSpec> {
    Some(match name {
        "list" => micro::list(c, ops, 1),
        "hashtable" => micro::hashtable(c, ops, 1),
        "hashtable2" => micro::hashtable2(c, ops, 1),
        "rbtree" => micro::rbtree(c, ops, 1),
        "th" => micro::th(c, ops, 1),
        "scale" => workloads::scale::smoke(
            "scale",
            workloads::scale::ScaleParams {
                depth: 3,
                width: 4,
                sections: 12,
                stmts_per_fn: 10,
                seed: 11,
            },
            ops,
        ),
        "genome" => stamp::genome(ops, 1),
        "vacation" => stamp::vacation(ops, 1),
        "kmeans" => stamp::kmeans(ops, 1),
        _ => return None,
    })
}

/// Parses an execution-mode name (`global`, `multigrain`/`mg`, `stm`,
/// `validate`).
pub fn parse_exec_mode(s: &str) -> Option<ExecMode> {
    Some(match s {
        "global" => ExecMode::Global,
        "multigrain" | "mg" => ExecMode::MultiGrain,
        "stm" => ExecMode::Stm,
        "validate" => ExecMode::Validate,
        _ => return None,
    })
}

/// Parses a `SECTION:INDEX` weaken plan.
pub fn parse_weaken(v: &str) -> Result<WeakenPlan, String> {
    let (s, i) = v
        .split_once(':')
        .ok_or_else(|| format!("--weaken: `{v}` is not SECTION:INDEX"))?;
    Ok(WeakenPlan {
        section: s.parse().map_err(|e| format!("--weaken section: {e}"))?,
        drop_index: i.parse().map_err(|e| format!("--weaken index: {e}"))?,
    })
}

/// Loads a canonical-JSON trace file.
pub fn load_trace(path: &str) -> Result<trace::Trace, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    trace::Trace::from_json(&text)
}

/// Writes `contents` to `path` and announces it (`wrote <path>`), the
/// convention every bin uses for canonical-JSON artifacts.
pub fn write_text(path: &str, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("{path}: {e}"))?;
    println!("wrote {path}");
    Ok(())
}

/// Signed percentage change of `new` against `base` (guarding the
/// zero baseline), the delta column every table prints.
pub fn delta_pct(base: u64, new: u64) -> f64 {
    100.0 * (new as f64 - base as f64) / (base as f64).max(1.0)
}

/// A cursor over `--flag value` argument lists: yields flags, fetches
/// their values with the shared error shapes.
pub struct Flags<'a> {
    cmd: &'a str,
    it: std::slice::Iter<'a, String>,
}

impl<'a> Flags<'a> {
    /// A cursor for subcommand `cmd` over its argument tail.
    pub fn new(cmd: &'a str, args: &'a [String]) -> Flags<'a> {
        Flags {
            cmd,
            it: args.iter(),
        }
    }

    /// The next flag, if any.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<&'a str> {
        self.it.next().map(String::as_str)
    }

    /// The value following `flag`, or `"<cmd>: <flag> needs <what>"`.
    pub fn value(&mut self, flag: &str, what: &str) -> Result<&'a str, String> {
        self.it
            .next()
            .map(String::as_str)
            .ok_or_else(|| format!("{}: {flag} needs {what}", self.cmd))
    }

    /// [`Flags::value`] parsed into `T`, failing as `"<flag>: <err>"`.
    pub fn parsed<T>(&mut self, flag: &str, what: &str) -> Result<T, String>
    where
        T: std::str::FromStr,
        T::Err: std::fmt::Display,
    {
        self.value(flag, what)?
            .parse()
            .map_err(|e| format!("{flag}: {e}"))
    }

    /// The shared unknown-flag error.
    pub fn unknown(&self, flag: &str) -> String {
        format!("{}: unknown flag `{flag}`", self.cmd)
    }
}

/// The run-shape flags shared by every workload-driving subcommand:
/// `--mode`, `--k`, `--threads`, `--ops`, `--contention`.
pub struct RunArgs {
    pub mode: ExecMode,
    pub k: usize,
    pub threads: usize,
    pub ops: i64,
    pub contention: Contention,
}

impl RunArgs {
    /// Defaults with the caller's thread count and contention mix
    /// (mode MultiGrain, k 9, 200 ops).
    pub fn new(threads: usize, contention: Contention) -> RunArgs {
        RunArgs {
            mode: ExecMode::MultiGrain,
            k: 9,
            threads,
            ops: 200,
            contention,
        }
    }

    /// Consumes `flag` if it is one of the shared run-shape flags;
    /// returns whether it was.
    pub fn apply(&mut self, flag: &str, f: &mut Flags) -> Result<bool, String> {
        match flag {
            "--mode" => {
                let v = f.value(flag, "a mode")?;
                self.mode =
                    parse_exec_mode(v).ok_or_else(|| format!("{}: bad mode `{v}`", f.cmd))?;
            }
            "--k" => self.k = f.parsed(flag, "a depth")?,
            "--threads" => self.threads = f.parsed(flag, "a count")?,
            "--ops" => self.ops = f.parsed(flag, "a count")?,
            "--contention" => {
                self.contention = match f.value(flag, "low|high")? {
                    "low" => Contention::Low,
                    "high" => Contention::High,
                    other => return Err(format!("{}: bad contention `{other}`", f.cmd)),
                };
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Resolves workload `name` under these flags into a ready
    /// [`RunConfig`].
    pub fn config(&self, cmd: &str, name: &str) -> Result<RunConfig, String> {
        let spec = workload(name, self.ops, self.contention)
            .ok_or_else(|| format!("{cmd}: unknown workload `{name}`"))?;
        Ok(RunConfig::from_spec(&spec, self.k, self.mode, self.threads))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn shared_flags_parse_and_unknowns_fall_through() {
        let args = strings(&["--mode", "stm", "--k", "4", "--threads", "6", "--json", "x"]);
        let mut ra = RunArgs::new(8, Contention::High);
        let mut f = Flags::new("adapt", &args);
        let mut leftovers = Vec::new();
        while let Some(flag) = f.next() {
            if ra.apply(flag, &mut f).unwrap() {
                continue;
            }
            leftovers.push(flag.to_string());
            f.value(flag, "a path").unwrap();
        }
        assert_eq!(ra.mode, ExecMode::Stm);
        assert_eq!(ra.k, 4);
        assert_eq!(ra.threads, 6);
        assert_eq!(ra.ops, 200, "untouched flags keep their defaults");
        assert_eq!(leftovers, ["--json"]);
    }

    #[test]
    fn error_shapes_are_stable() {
        let args = strings(&["--k"]);
        let mut ra = RunArgs::new(4, Contention::Low);
        let mut f = Flags::new("record", &args);
        let flag = f.next().unwrap();
        assert_eq!(
            ra.apply(flag, &mut f).unwrap_err(),
            "record: --k needs a depth"
        );
        let args = strings(&["--mode", "fast"]);
        let mut f = Flags::new("adapt", &args);
        let flag = f.next().unwrap();
        assert_eq!(
            ra.apply(flag, &mut f).unwrap_err(),
            "adapt: bad mode `fast`"
        );
        assert_eq!(f.unknown("--bogus"), "adapt: unknown flag `--bogus`");
    }

    #[test]
    fn weaken_plans_round_trip() {
        let w = parse_weaken("3:1").unwrap();
        assert_eq!((w.section, w.drop_index), (3, 1));
        assert!(parse_weaken("31").unwrap_err().contains("SECTION:INDEX"));
    }

    #[test]
    fn every_advertised_workload_resolves() {
        for name in WORKLOADS.split_whitespace() {
            assert!(
                workload(name, 10, Contention::Low).is_some(),
                "workload `{name}` advertised but unresolvable"
            );
        }
        assert!(workload("nope", 10, Contention::Low).is_none());
    }
}
